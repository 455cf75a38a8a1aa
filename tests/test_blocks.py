"""Interaction block behavior: residual structure, category bias, gradients."""

import numpy as np
import pytest

from lcgdiff import tensor as T
from lcgdiff.blocks import (
    category_bias,
    cross_decode,
    init_interaction_params,
    interaction_forward,
    norm_affine,
    self_decode,
)
from lcgdiff.gla import gla_apply
from lcgdiff.tensor import ShapeError, Tape, Tensor, backward


D, DK, DV, DE, M, L = 6, 4, 4, 5, 3, 8


def _params(seed=0, **kw):
    return init_interaction_params(D, DK, DV, DE, np.random.default_rng(seed), zero_residual=False, **kw)


def _stream(seed=1):
    return Tensor(np.random.default_rng(seed).standard_normal((L, D)))


def _tokens(seed=2, m=M):
    return Tensor(np.random.default_rng(seed).standard_normal((m, DE)))


def test_zeroed_output_projections_make_block_identity():
    params = _params()
    params.gla.w_o.data[:] = 0.0
    params.cross_o.data[:] = 0.0
    params.mlp_out.data[:] = 0.0
    x = _stream()
    out = interaction_forward(x, _tokens(), params)
    np.testing.assert_array_equal(out.data, x.data)


def test_self_decode_residual_equals_standalone_pipeline():
    params = _params(3)
    x = _stream(4)
    out = self_decode(x, params)
    normed = norm_affine(x, params.norm1_gamma, params.norm1_beta)
    # out - x re-rounds, so compare at additive fp noise level, not bitwise.
    np.testing.assert_allclose(out.data - x.data, gla_apply(normed, params.gla).data, atol=1e-12)


def test_cross_decode_with_zeroed_value_and_mlp_projections_is_identity():
    params = _params(5)
    params.cross_v.data[:] = 0.0
    params.mlp_out.data[:] = 0.0
    h = _stream(6)
    out = cross_decode(h, _tokens(7), params)
    # Zero values make the bias zero; zero cross_o is not needed for identity here.
    np.testing.assert_allclose(out.data, h.data, atol=1e-15)


def test_category_bias_is_the_mean_token_through_value_and_output():
    params = _params(8)
    e = _tokens(10)
    out = category_bias(e, params)
    expected = e.data.mean(axis=0, keepdims=True) @ params.cross_v.data @ params.cross_o.data
    np.testing.assert_allclose(out.data, expected, rtol=1e-12)
    # One token: the mean is an exact copy, so the bias is E W_v W_o to the bit.
    one = _tokens(10, m=1)
    np.testing.assert_array_equal(
        category_bias(one, params).data, one.data @ params.cross_v.data @ params.cross_o.data
    )


def test_cross_stage_adds_one_bias_row_to_every_token():
    params = _params(9)
    params.mlp_out.data[:] = 0.0
    h = _stream(9)
    e = Tensor(np.random.default_rng(10).standard_normal((2, 3, DE)))
    hs = Tensor(np.stack([h.data, h.data]))
    out = cross_decode(hs, e, params).data
    bias = category_bias(e, params).data
    assert bias.shape == (2, 1, D)
    np.testing.assert_array_equal(out, hs.data + bias)


def test_embedding_tokens_are_order_invariant():
    params = _params(11)
    h = _stream(12)
    rows = np.random.default_rng(13).standard_normal((3, DE))
    out_a = cross_decode(h, Tensor(rows), params).data
    out_b = cross_decode(h, Tensor(rows[[2, 0, 1]]), params).data
    # The token mean sums in another order, so only the last bits may differ.
    np.testing.assert_allclose(out_a, out_b, rtol=1e-12, atol=1e-14)


def test_interaction_forward_is_the_two_stage_composition():
    params = _params(14)
    x = _stream(15)
    e = _tokens(16)
    np.testing.assert_array_equal(
        interaction_forward(x, e, params).data,
        cross_decode(self_decode(x, params), e, params).data,
    )


def test_block_without_cross_ignores_embeddings():
    params = init_interaction_params(
        D, DK, DV, DE, np.random.default_rng(17), with_cross=False, zero_residual=False
    )
    x = _stream(18)
    out = interaction_forward(x, None, params)
    assert out.shape == (L, D)
    with pytest.raises(ShapeError, match="without a cross stage"):
        cross_decode(x, _tokens(), params)


def test_empty_embedding_token_set_rejected():
    params = _params(19)
    with pytest.raises(ShapeError, match="null-category embedding"):
        cross_decode(_stream(), Tensor(np.zeros((0, DE))), params)


def test_embedding_width_mismatch_rejected():
    params = _params(20)
    with pytest.raises(ShapeError, match="embedding width"):
        cross_decode(_stream(), Tensor(np.ones((M, DE + 1))), params)


def test_batched_forward_matches_per_sample():
    params = _params(21)
    rng = np.random.default_rng(22)
    xs = rng.standard_normal((3, L, D))
    es = rng.standard_normal((3, M, DE))
    batched = interaction_forward(Tensor(xs), Tensor(es), params).data
    for i in range(3):
        single = interaction_forward(Tensor(xs[i]), Tensor(es[i]), params).data
        np.testing.assert_array_equal(batched[i], single)


def test_gradient_reaches_embedding_tokens():
    params = _params(23)
    x = _stream(24)
    e = Tensor(np.random.default_rng(25).standard_normal((M, DE)), requires_grad=True)
    with Tape() as tape:
        loss = T.mean_square(interaction_forward(x, e, params))
    grads = backward(tape, loss)
    assert np.abs(grads[e]).max() > 0


def test_gradient_reaches_every_block_parameter():
    params = _params(26)
    x = _stream(27)
    e = _tokens(28)
    with Tape() as tape:
        loss = T.mean_square(interaction_forward(x, e, params))
    grads = backward(tape, loss)
    for name, tensor in params.named_params().items():
        assert tensor in grads, name
        assert np.abs(grads[tensor]).max() > 0, name


def test_block_gradients_match_finite_differences():
    params = _params(29)
    rng = np.random.default_rng(30)
    x = rng.standard_normal((5, D))
    e = rng.standard_normal((M, DE))

    def wrt_stream(t):
        return T.mean_square(interaction_forward(t, Tensor(e), params))

    report = T.check_gradient(wrt_stream, Tensor(x))
    assert report.failures == []
    assert report.max_rel_err <= 1e-4, report

    def wrt_tokens(t):
        return T.mean_square(interaction_forward(Tensor(x), t, params))

    report_e = T.check_gradient(wrt_tokens, Tensor(e))
    assert report_e.failures == []
    assert report_e.max_rel_err <= 1e-4, report_e


def test_forward_is_deterministic():
    params = _params(31)
    x = _stream(32)
    e = _tokens(33)
    a = interaction_forward(x, e, params).data
    b = interaction_forward(x, e, params).data
    assert np.array_equal(a, b)
