"""Gated-linear-attention semantics: recurrence vs oracle, gates, causality."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcgdiff import tensor as T
from lcgdiff.config import default_config
from lcgdiff.denoiser import denoise, init_denoiser
from lcgdiff.gla import (
    gla_apply,
    gla_attend,
    gla_oracle,
    gla_project,
    init_gla_params,
)
from lcgdiff.tensor import ShapeError, Tape, Tensor, backward


def _random_instance(rng, length, dk, dv, lead=()):
    q = rng.standard_normal(lead + (length, dk))
    k = rng.standard_normal(lead + (length, dk))
    v = rng.standard_normal(lead + (length, dv))
    alpha = rng.uniform(0.05, 0.999, size=lead + (length, dk))
    beta = rng.uniform(0.05, 0.999, size=lead + (length, dv))
    return q, k, v, alpha, beta


def _swap_last(x):
    """Transpose the trailing two axes, leaving batch dimensions alone."""
    return T.transpose(x, tuple(range(x.data.ndim - 2)) + (x.data.ndim - 1, x.data.ndim - 2))


def _per_token_attend(q, k, v, alpha, beta):
    """The recurrence composed from tape primitives one token at a time.

    This is how ``gla_attend`` was built before it became one fused node;
    it stays here as a second judge of the fused forward pass and its vjp.
    """
    q, k, v, alpha, beta = (T.as_tensor(t) for t in (q, k, v, alpha, beta))
    state = Tensor(np.zeros(q.shape[:-2] + (q.shape[-1], v.shape[-1])))
    k_cols = _swap_last(k)
    a_cols = _swap_last(alpha)
    reads = []
    for t in range(q.shape[-2]):
        gate = T.matmul(T.narrow(a_cols, -1, t, 1), T.narrow(beta, -2, t, 1))
        update = T.matmul(T.narrow(k_cols, -1, t, 1), T.narrow(v, -2, t, 1))
        state = T.add(T.mul(gate, state), update)
        reads.append(T.matmul(T.narrow(q, -2, t, 1), state))
    return T.concat(reads, axis=-2), state


def test_single_token_read_is_plain_outer_product():
    rng = np.random.default_rng(0)
    q, k, v, alpha, beta = _random_instance(rng, 1, 4, 3)
    o, state = gla_attend(q, k, v, alpha, beta)
    np.testing.assert_allclose(o.data[0], q[0] @ np.outer(k[0], v[0]), rtol=1e-14)
    np.testing.assert_allclose(state.data, np.outer(k[0], v[0]), rtol=1e-14)


def test_two_token_hand_computation():
    q = [[1.0], [2.0]]
    k = [[3.0], [1.0]]
    v = [[2.0], [5.0]]
    alpha = [[0.5], [0.25]]
    beta = [[1.0], [0.5]]
    o, _ = gla_attend(q, k, v, alpha, beta)
    # S_1 = 6, O_1 = 6; G_2 = 0.125, S_2 = 0.125 * 6 + 5 = 5.75, O_2 = 11.5
    np.testing.assert_allclose(o.data, [[6.0], [11.5]], rtol=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    length=st.integers(1, 12),
    dk=st.integers(1, 8),
    dv=st.integers(1, 8),
    seed=st.integers(0, 2**16),
)
def test_recurrence_matches_oracle(length, dk, dv, seed):
    rng = np.random.default_rng(seed)
    q, k, v, alpha, beta = _random_instance(rng, length, dk, dv)
    o, _ = gla_attend(q, k, v, alpha, beta)
    ref = gla_oracle(q, k, v, alpha, beta)
    # A forward-error scale: the gates are positive, so the oracle on |q|,
    # |k| and |v| sums the absolute values of every term of each read. A read
    # that cancels to near zero keeps the rounding of the terms it summed.
    scale = gla_oracle(np.abs(q), np.abs(k), np.abs(v), alpha, beta).data
    assert (np.abs(o.data - ref.data) <= 1e-14 * scale).all()


def test_causality_under_future_perturbation():
    rng = np.random.default_rng(3)
    params = init_gla_params(6, 4, 4, rng, zero_residual=False)
    x = rng.standard_normal((9, 6))
    bumped = x.copy()
    bumped[5:] += rng.standard_normal((4, 6))
    out_a = gla_apply(Tensor(x), params).data
    out_b = gla_apply(Tensor(bumped), params).data
    np.testing.assert_array_equal(out_a[:5], out_b[:5])
    assert not np.array_equal(out_a[5:], out_b[5:])


def test_token_contribution_carries_geometric_gate_factor():
    # With alpha = beta = s everywhere the per-step decay is g = s * s, and
    # token j's contribution to O_t must carry exactly g^(t-j).
    s = 0.7
    length = 8
    q = np.ones((length, 1))
    k = np.ones((length, 1))
    v = np.ones((length, 1))
    gates = np.full((length, 1), s)
    o, _ = gla_attend(q, k, v, gates, gates)
    g = s * s
    expected = np.array([sum(g ** (t - j) for j in range(t + 1)) for t in range(length)])
    np.testing.assert_allclose(o.data[:, 0], expected, rtol=1e-13)


def test_gate_limits_cumulative_and_local():
    rng = np.random.default_rng(4)
    length, dk, dv = 10, 5, 4
    q = rng.standard_normal((length, dk))
    k = rng.standard_normal((length, dk))
    v = rng.standard_normal((length, dv))
    ones = np.ones((length, dk)), np.ones((length, dv))
    zeros = np.zeros((length, dk)), np.zeros((length, dv))

    cumulative, _ = gla_attend(q, k, v, *ones)
    running = np.zeros((dk, dv))
    for t in range(length):
        running = running + np.outer(k[t], v[t])
        assert np.abs(cumulative.data[t] - q[t] @ running).max() <= 1e-12

    local, _ = gla_attend(q, k, v, *zeros)
    for t in range(length):
        assert np.abs(local.data[t] - q[t] @ np.outer(k[t], v[t])).max() <= 1e-12


def test_multi_head_scan_equals_manual_split():
    rng = np.random.default_rng(6)
    d, dk, dv, length = 6, 4, 6, 7
    params = init_gla_params(d, dk, dv, rng, heads=2, zero_residual=False)
    x = Tensor(rng.standard_normal((length, d)))
    q, k, v, alpha, beta, r_gate = gla_project(x, params)
    out = gla_apply(x, params)

    halves = []
    for h in range(2):
        o_h, _ = gla_attend(
            Tensor(q.data[:, h * 2 : h * 2 + 2]),
            Tensor(k.data[:, h * 2 : h * 2 + 2]),
            Tensor(v.data[:, h * 3 : h * 3 + 3]),
            Tensor(alpha.data[:, h * 2 : h * 2 + 2]),
            Tensor(beta.data[:, h * 3 : h * 3 + 3]),
        )
        halves.append(o_h.data)
    o_manual = np.concatenate(halves, axis=-1)
    manual = (r_gate.data * T.layernorm(Tensor(o_manual)).data) @ params.w_o.data
    np.testing.assert_allclose(out.data, manual, rtol=1e-12)


def test_batched_attend_matches_per_sample():
    rng = np.random.default_rng(7)
    qs, ks, vs, als, bes = [], [], [], [], []
    for _ in range(3):
        q, k, v, a, b = _random_instance(rng, 6, 3, 4)
        qs.append(q), ks.append(k), vs.append(v), als.append(a), bes.append(b)
    batched, _ = gla_attend(np.stack(qs), np.stack(ks), np.stack(vs), np.stack(als), np.stack(bes))
    for i in range(3):
        single, _ = gla_attend(qs[i], ks[i], vs[i], als[i], bes[i])
        np.testing.assert_array_equal(batched.data[i], single.data)


def test_projection_gates_lie_in_unit_interval_and_tau_tempers():
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((12, 6)) * 3)
    cool = init_gla_params(6, 4, 4, rng, tau=1.0, zero_residual=False)
    warm = init_gla_params(6, 4, 4, np.random.default_rng(8), tau=64.0, zero_residual=False)
    # Same weights, different temperature: rebuild warm from cool's tensors.
    warm = type(warm)(**{**cool.__dict__, "tau": 64.0})
    _, _, _, a_cool, b_cool, _ = gla_project(x, cool)
    _, _, _, a_warm, b_warm, _ = gla_project(x, warm)
    for gate in (a_cool, b_cool, a_warm, b_warm):
        assert (gate.data > 0).all() and (gate.data < 1).all()
    assert (a_warm.data >= a_cool.data).all()
    assert a_warm.data.mean() > a_cool.data.mean()


def test_full_pipeline_gradients_match_differences():
    rng = np.random.default_rng(9)
    d, dk, dv, length = 5, 3, 4, 6
    params = init_gla_params(d, dk, dv, rng, zero_residual=False)
    x = rng.standard_normal((length, d))
    probe = rng.standard_normal((length, d))

    def loss_wrt_input(t):
        return T.reduce_sum(T.mul(gla_apply(t, params), Tensor(probe)))

    report = T.check_gradient(loss_wrt_input, Tensor(x))
    assert report.failures == []
    assert report.max_rel_err <= 1e-5, report

    def loss_wrt_wq(t):
        trial = type(params)(**{**params.__dict__, "w_q": t})
        return T.reduce_sum(T.mul(gla_apply(Tensor(x), trial), Tensor(probe)))

    report_w = T.check_gradient(loss_wrt_wq, params.w_q)
    assert report_w.failures == []
    assert report_w.max_rel_err <= 1e-5, report_w


def test_gradient_flows_to_every_parameter():
    rng = np.random.default_rng(10)
    params = init_gla_params(5, 3, 4, rng, zero_residual=False)
    x = Tensor(rng.standard_normal((6, 5)))
    with Tape() as tape:
        loss = T.mean_square(gla_apply(x, params))
    grads = backward(tape, loss)
    for name, tensor in params.named_params().items():
        assert tensor in grads, name
        assert np.abs(grads[tensor]).max() > 0, name


def test_width_mismatch_raises_named_diagnostic():
    rng = np.random.default_rng(11)
    q = rng.standard_normal((4, 3))
    k = rng.standard_normal((4, 2))
    v = rng.standard_normal((4, 2))
    with pytest.raises(ShapeError, match="key widths"):
        gla_attend(q, k, v, np.ones((4, 3)), np.ones((4, 2)))
    with pytest.raises(ShapeError, match="value widths"):
        gla_attend(q, np.ones((4, 3)), v, np.ones((4, 3)), np.ones((4, 3)))


def test_tau_must_be_positive():
    with pytest.raises(ValueError, match="tau"):
        init_gla_params(4, 2, 2, np.random.default_rng(0), tau=0.0)


def test_oracle_rejects_batched_input():
    with pytest.raises(ShapeError, match="2-d"):
        gla_oracle(np.ones((2, 3, 4)), np.ones((2, 3, 4)), np.ones((2, 3, 4)), np.ones((2, 3, 4)), np.ones((2, 3, 4)))


def test_scan_is_deterministic():
    rng = np.random.default_rng(12)
    params = init_gla_params(5, 4, 4, rng, zero_residual=False)
    x = Tensor(rng.standard_normal((8, 5)))
    a = gla_apply(x, params).data
    b = gla_apply(x, params).data
    assert np.array_equal(a, b)


@pytest.mark.parametrize("which", ["q", "k", "v", "alpha", "beta"])
def test_fused_node_gradients_match_differences(which):
    rng = np.random.default_rng(20)
    lead, length, dk, dv = (2,), 6, 3, 4
    names = ["q", "k", "v", "alpha", "beta"]
    inputs = dict(zip(names, _random_instance(rng, length, dk, dv, lead)))
    # A gate of exactly 0 forgets the state, one of exactly 1 keeps it; a vjp
    # that divides by gates or takes their logs fails on the first.
    inputs["alpha"][0, 2, 1] = 0.0
    inputs["beta"][1, 4, 0] = 0.0
    inputs["alpha"][1, 3, 2] = 1.0
    inputs["beta"][0, 1, 3] = 1.0
    w_reads = Tensor(rng.standard_normal(lead + (length, dv)))

    def loss(t):
        args = {name: Tensor(a) for name, a in inputs.items()}
        args[which] = t
        reads, _ = gla_attend(*(args[name] for name in names))
        return T.reduce_sum(T.mul(reads, w_reads))

    report = T.check_gradient(loss, Tensor(inputs[which]))
    assert report.failures == []
    assert report.max_rel_err <= 1e-5, report


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_fused_node_agrees_with_per_token_composition(seed):
    rng = np.random.default_rng(seed)
    lead = (int(rng.integers(1, 4)),)
    length, dk, dv = int(rng.integers(1, 16)), int(rng.integers(1, 6)), int(rng.integers(1, 6))
    arrays = _random_instance(rng, length, dk, dv, lead)
    w_reads = Tensor(rng.standard_normal(lead + (length, dv)))

    results = []
    for attend in (gla_attend, _per_token_attend):
        inputs = [Tensor(a, requires_grad=True) for a in arrays]
        with Tape() as tape:
            reads, state = attend(*inputs)
            loss = T.reduce_sum(T.mul(reads, w_reads))
        grads = backward(tape, loss)
        results.append([reads.data, state.data] + [grads[t] for t in inputs])
    for fused, composed in zip(*results):
        np.testing.assert_allclose(fused, composed, rtol=1e-12)


def test_final_state_is_a_constant_outside_the_tape():
    rng = np.random.default_rng(27)
    inputs = [Tensor(a, requires_grad=True) for a in _random_instance(rng, 5, 3, 4, lead=(2,))]
    with Tape() as tape:
        reads, state = gla_attend(*inputs)
    assert reads.requires_grad and not state.requires_grad
    assert [node.output for node in tape.nodes] == [reads]


@pytest.mark.parametrize("heads", [1, 2])
def test_mixer_records_one_attend_node_and_no_narrow(heads):
    rng = np.random.default_rng(24)
    params = init_gla_params(6, 4, 4, rng, heads=heads, zero_residual=False)
    with Tape() as tape:
        gla_apply(Tensor(rng.standard_normal((2, 5, 6))), params)
    names = Counter(node.name for node in tape.nodes)
    assert names["gla_attend"] == 1
    assert names["narrow"] == 0


def test_default_denoise_records_one_attend_node_per_block():
    config = default_config()
    params = init_denoiser(config.model, np.random.default_rng(25), zero_residual=True)
    side = config.data.height // config.model.factor
    rng = np.random.default_rng(26)
    x_t = rng.standard_normal((2, side, side, params.config.image_channels))
    cond = rng.standard_normal((2, side, side, params.config.cond_channels))
    e = rng.standard_normal((2, 1, config.model.d_e))
    with Tape() as tape:
        denoise(x_t, np.array([3, 700]), cond, e, params)
    names = Counter(node.name for node in tape.nodes)
    blocks = sum(len(level) for level in [*params.down_blocks, params.bottom_blocks, *params.up_blocks])
    assert names["gla_attend"] == blocks == 3
    # Both narrow nodes slice the head-skip coefficients in denoise itself.
    assert names["narrow"] == 2
