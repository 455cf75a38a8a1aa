"""Tensor and tape behavior: primitive semantics, adjoints, and the checker."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcgdiff import tensor as T


def _numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Plain central differences, written without the tape on purpose."""
    g = np.zeros_like(x)
    flat = x.copy()
    for idx in np.ndindex(x.shape):
        orig = flat[idx]
        flat[idx] = orig + eps
        up = float(fn(T.Tensor(flat)).data)
        flat[idx] = orig - eps
        down = float(fn(T.Tensor(flat)).data)
        flat[idx] = orig
        g[idx] = (up - down) / (2.0 * eps)
    return g


def _taped_grad(fn, x: np.ndarray) -> np.ndarray:
    leaf = T.Tensor(x, requires_grad=True)
    with T.Tape() as tape:
        loss = fn(leaf)
    return T.backward(tape, loss)[leaf]


def _assert_close_grads(fn, x: np.ndarray, rel_tol: float = 1e-6) -> None:
    analytic = _taped_grad(fn, x)
    numeric = _numeric_grad(fn, x)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    rel = np.abs(analytic - numeric) / denom
    hit = np.abs(analytic - numeric)
    assert np.all((rel <= rel_tol) | (hit <= 1e-9)), f"max rel err {rel.max():.3e}"


def test_matmul_identity_is_identity():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 5))
    out = T.matmul(T.Tensor(a), T.Tensor(np.eye(5)))
    np.testing.assert_array_equal(out.data, a)


def test_sigmoid_and_swish_at_zero():
    assert T.sigmoid(T.Tensor(np.zeros(3))).data.tolist() == [0.5, 0.5, 0.5]
    assert T.swish(T.Tensor(np.zeros(3))).data.tolist() == [0.0, 0.0, 0.0]


def _reference_sigmoid(v: np.ndarray) -> np.ndarray:
    """The per-side form with boolean gathers that the library once used."""
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def _sigmoid_probe_inputs() -> list[np.ndarray]:
    edges = [0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 709.0, -709.0, 745.0, -745.0, 800.0, -800.0]
    edges += [np.inf, -np.inf, np.nan, -np.nan]
    rng = np.random.default_rng(29)
    arrays = [np.array(edges), np.array(3.5), np.array(-3.5)]
    for shape in [(64, 16), (64, 256), (8, 64, 256)]:
        arrays.append(rng.standard_normal(shape) * rng.choice([1.0, 10.0, 60.0], size=shape))
    return arrays


@pytest.mark.parametrize("case", range(len(_sigmoid_probe_inputs())))
def test_sigmoid_and_swish_bitwise_match_reference(case):
    x = _sigmoid_probe_inputs()[case]
    c = np.random.default_rng(case).standard_normal(x.shape)
    with np.errstate(all="ignore"):
        ref = _reference_sigmoid(x)
        expected = {
            T.sigmoid: (ref, c * ref * (1.0 - ref)),
            T.swish: (x * ref, c * (ref + x * ref * (1.0 - ref))),
        }
        for prim, (want_out, want_grad) in expected.items():
            leaf = T.Tensor(x, requires_grad=True)
            with T.Tape() as tape:
                out = prim(leaf)
                loss = T.reduce_sum(T.mul(out, T.Tensor(c)))
            grad = T.backward(tape, loss)[leaf]
            assert out.data.tobytes() == want_out.tobytes(), prim.__name__
            assert grad.tobytes() == want_grad.tobytes(), prim.__name__
            assert np.isnan(out.data[np.isnan(x)]).all(), prim.__name__


def test_layernorm_constant_vector_gives_zeros():
    out = T.layernorm(T.Tensor(np.full((4, 8), 3.25)))
    np.testing.assert_array_equal(out.data, np.zeros((4, 8)))


def test_layernorm_moments():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((6, 32))
    y = T.layernorm(T.Tensor(x)).data
    np.testing.assert_allclose(y.mean(-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(y.var(-1), 1.0, atol=1e-3)


def test_softmax_rows_normalize():
    rng = np.random.default_rng(2)
    y = T.softmax(T.Tensor(rng.standard_normal((3, 7)) * 10)).data
    np.testing.assert_allclose(y.sum(-1), 1.0, atol=1e-12)
    assert (y > 0).all()


def test_backward_of_sum_x_times_x_is_2x():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 3))
    leaf = T.Tensor(x, requires_grad=True)
    with T.Tape() as tape:
        loss = T.reduce_sum(T.mul(leaf, leaf))
    grads = T.backward(tape, loss)
    np.testing.assert_allclose(grads[leaf], 2.0 * x, rtol=1e-12)


def test_backward_visits_shared_subexpressions_once():
    # y = x + x contributes twice to the same leaf; accumulation must add.
    x = T.Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    with T.Tape() as tape:
        loss = T.reduce_sum(T.add(x, x))
    np.testing.assert_array_equal(T.backward(tape, loss)[x], np.full((1, 2), 2.0))


def test_broadcast_backward_sums_over_broadcast_axes():
    a = T.Tensor(np.ones((4, 3)), requires_grad=True)
    b = T.Tensor(np.ones((3,)), requires_grad=True)
    with T.Tape() as tape:
        loss = T.reduce_sum(T.add(a, b))
    grads = T.backward(tape, loss)
    np.testing.assert_array_equal(grads[a], np.ones((4, 3)))
    np.testing.assert_array_equal(grads[b], np.full((3,), 4.0))


def test_leaf_not_reaching_loss_gets_zero_gradient():
    x = T.Tensor(np.ones((2, 2)), requires_grad=True)
    unused = T.Tensor(np.ones((2, 2)), requires_grad=True)
    with T.Tape() as tape:
        _dead_end = T.mul(unused, unused)
        loss = T.reduce_sum(T.mul(x, x))
    grads = T.backward(tape, loss)
    np.testing.assert_array_equal(grads[unused], np.zeros((2, 2)))


def test_non_scalar_loss_rejected():
    x = T.Tensor(np.ones((2, 2)), requires_grad=True)
    with T.Tape() as tape:
        y = T.mul(x, x)
    with pytest.raises(T.ShapeError, match="scalar"):
        T.backward(tape, y)


def test_shape_mismatch_names_primitive_and_shapes():
    with pytest.raises(T.ShapeError) as err:
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((4, 2))))
    msg = str(err.value)
    assert "matmul" in msg and "(2, 3)" in msg and "(4, 2)" in msg

    with pytest.raises(T.ShapeError) as err2:
        T.add(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((4,))))
    assert "add" in str(err2.value)


@pytest.mark.parametrize("name", ["add", "sub", "mul"])
def test_elementwise_broadcast_mismatch_raises_shape_error(name):
    with pytest.raises(T.ShapeError) as err:
        getattr(T, name)(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((4,))))
    msg = str(err.value)
    assert name in msg and "(2, 3)" in msg and "(4,)" in msg


def test_batched_matmul_lead_axis_mismatch_raises_shape_error():
    with pytest.raises(T.ShapeError) as err:
        T.matmul(T.Tensor(np.ones((2, 3, 4))), T.Tensor(np.ones((5, 4, 2))))
    msg = str(err.value)
    # Both operands' lead axes must be named.
    assert "matmul" in msg and "(2," in msg and "(5," in msg


def test_ops_outside_tape_do_not_track():
    x = T.Tensor(np.ones((2, 2)), requires_grad=True)
    y = T.mul(x, x)
    assert not y.requires_grad


def test_determinism_bit_identical():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((8, 8))
    w = rng.standard_normal((8, 8))

    def run():
        leaf = T.Tensor(x, requires_grad=True)
        with T.Tape() as tape:
            h = T.swish(T.matmul(leaf, T.Tensor(w)))
            loss = T.mean_square(T.layernorm(h))
        return float(loss.data), T.backward(tape, loss)[leaf]

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert np.array_equal(g1, g2)


def test_random_five_op_chain_gradient_matches_differences():
    rng = np.random.default_rng(11)
    w1 = rng.standard_normal((6, 5))
    w2 = rng.standard_normal((5, 4))
    c = rng.standard_normal((3, 4))

    def fn(x):
        h = T.matmul(x, T.Tensor(w1))
        h = T.swish(h)
        h = T.matmul(h, T.Tensor(w2))
        h = T.layernorm(h)
        return T.reduce_sum(T.mul(h, T.Tensor(c)))

    _assert_close_grads(fn, rng.standard_normal((3, 6)))


PRIMITIVE_CASES = {
    "add": lambda x, c: T.add(x, T.Tensor(c)),
    "sub": lambda x, c: T.sub(T.Tensor(c), x),
    "mul": lambda x, c: T.mul(x, T.Tensor(c)),
    "neg": lambda x, c: T.neg(x),
    "power2": lambda x, c: T.power(x, 2.0),
    "matmul_left": lambda x, c: T.matmul(x, T.Tensor(c)),
    "matmul_right": lambda x, c: T.matmul(T.Tensor(c), x),
    "transpose": lambda x, c: T.mul(T.transpose(x), T.Tensor(c.T)),
    "flip": lambda x, c: T.mul(T.flip(x, 0), T.Tensor(c)),
    "reshape": lambda x, c: T.mul(T.reshape(x, (c.size,)), T.Tensor(c.reshape(-1))),
    "sigmoid": lambda x, c: T.mul(T.sigmoid(x), T.Tensor(c)),
    "swish": lambda x, c: T.mul(T.swish(x), T.Tensor(c)),
    "softmax": lambda x, c: T.mul(T.softmax(x), T.Tensor(c)),
    "layernorm": lambda x, c: T.mul(T.layernorm(x), T.Tensor(c)),
    "narrow": lambda x, c: T.mul(T.narrow(x, 0, 1, 2), T.Tensor(c[1:3])),
    "mean": lambda x, c: T.add(T.reduce_sum(T.reduce_mean(x, axis=-1)), T.mul(T.reduce_sum(T.Tensor(c)), 0.0)),
    "broadcast": lambda x, c: T.mul(T.broadcast_to(T.narrow(x, 0, 0, 1), c.shape), T.Tensor(c)),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_gradients_match_differences(name):
    rng = np.random.default_rng(hash(name) % (2**32))
    x = rng.standard_normal((4, 4))
    c = rng.standard_normal((4, 4))
    case = PRIMITIVE_CASES[name]

    def fn(t):
        out = case(t, c)
        return T.reduce_sum(out) if out.data.shape else out

    _assert_close_grads(fn, x)


def test_fractional_power_gradient_on_positive_domain():
    rng = np.random.default_rng(13)
    x = rng.uniform(0.2, 0.9, size=(5, 3))
    c = rng.standard_normal((5, 3))

    def fn(t):
        return T.reduce_sum(T.mul(T.power(T.sigmoid(t), 1.0 / 16.0), T.Tensor(c)))

    _assert_close_grads(fn, x)


def test_flip_reverses_one_axis_and_involutes():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((3, 5))
    flipped = T.flip(T.Tensor(x), 1)
    np.testing.assert_array_equal(flipped.data, x[:, ::-1])
    np.testing.assert_array_equal(T.flip(flipped, 1).data, x)


def test_concat_gradient_splits():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((2, 5))
    c = rng.standard_normal((2, 8))
    ta = T.Tensor(a, requires_grad=True)
    tb = T.Tensor(b, requires_grad=True)
    with T.Tape() as tape:
        loss = T.reduce_sum(T.mul(T.concat([ta, tb], axis=1), T.Tensor(c)))
    grads = T.backward(tape, loss)
    np.testing.assert_allclose(grads[ta], c[:, :3], rtol=1e-12)
    np.testing.assert_allclose(grads[tb], c[:, 3:], rtol=1e-12)


def test_stack_roundtrips_and_tracks():
    rng = np.random.default_rng(19)
    rows = [rng.standard_normal((3,)) for _ in range(4)]
    out = T.stack([T.Tensor(r) for r in rows], axis=0)
    np.testing.assert_array_equal(out.data, np.stack(rows))


def test_batched_matmul_gradient_unbroadcasts_to_shared_weight():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((3, 4, 5))
    c = rng.standard_normal((3, 4, 2))

    def fn(w):
        return T.reduce_sum(T.mul(T.matmul(T.Tensor(x), w), T.Tensor(c)))

    _assert_close_grads(fn, rng.standard_normal((5, 2)))


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    lead=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_broadcast_adjoint_property(rows, cols, lead, seed):
    # <broadcast(b), g> == <b, unbroadcast(g)> for the add primitive.
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((lead, rows, cols))
    b = rng.standard_normal((cols,))
    tb = T.Tensor(b, requires_grad=True)
    with T.Tape() as tape:
        loss = T.reduce_sum(T.mul(T.add(T.Tensor(np.zeros((lead, rows, cols))), tb), T.Tensor(g)))
    got = T.backward(tape, loss)[tb]
    np.testing.assert_allclose(got, g.sum(axis=(0, 1)), rtol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    length=st.integers(2, 8),
    start=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
def test_narrow_concat_roundtrip(length, start, seed):
    start = min(start, length - 1)
    rng = np.random.default_rng(seed)
    x = T.Tensor(rng.standard_normal((length, 3)))
    left = T.narrow(x, 0, 0, start) if start else None
    mid = T.narrow(x, 0, start, length - start)
    parts = [p for p in (left, mid) if p is not None]
    back = T.concat(parts, axis=0)
    np.testing.assert_array_equal(back.data, x.data)


def test_check_gradient_square_at_three():
    report = T.check_gradient(lambda t: T.reduce_sum(T.mul(t, t)), T.Tensor(np.array([3.0])))
    assert report.failures == []
    assert report.max_abs_err <= 1e-8
    assert report.ok(rel_tol=1e-8)


def test_check_gradient_flags_kink_at_zero():
    # |x| built as (x^2)^(1/2): analytic route hits 0^(-1/2) at the kink.
    def absolute(t):
        return T.reduce_sum(T.power(T.power(t, 2.0), 0.5))

    with np.errstate(invalid="ignore", divide="ignore"):
        report = T.check_gradient(absolute, T.Tensor(np.array([0.0])))
    assert not report.ok()
    assert report.failures, "kink must be reported, not silently passed"


def test_check_gradient_reports_nan_coordinate():
    def bad(t):
        return T.reduce_sum(T.power(t, 0.5))

    with np.errstate(invalid="ignore", divide="ignore"):
        report = T.check_gradient(bad, T.Tensor(np.array([4.0, -1.0])))
    assert any("(1,)" in f for f in report.failures)


def test_check_gradient_probe_subset_is_seeded():
    rng_a = np.random.default_rng(5)
    rng_b = np.random.default_rng(5)
    point = T.Tensor(np.arange(12.0).reshape(3, 4) / 7.0)

    def fn(t):
        return T.mean_square(T.swish(t))

    ra = T.check_gradient(fn, point, max_probes=5, rng=rng_a)
    rb = T.check_gradient(fn, point, max_probes=5, rng=rng_b)
    assert ra.probed == rb.probed == 5
    assert ra.max_rel_err == rb.max_rel_err
