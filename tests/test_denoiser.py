"""Denoiser wiring: shapes, folding, cross pattern, gradients."""

import numpy as np
import pytest

from lcgdiff.conditioning import Category, embed, init_embedding_table
from lcgdiff.diffusion import build_conditioning, loss_given_noise, make_schedule
from lcgdiff.denoiser import (
    DenoiserConfig,
    _fold_grid,
    _unfold_grid,
    denoise,
    init_denoiser,
    position_embedding,
    timestep_embedding,
)
from lcgdiff.tensor import ShapeError, Tape, Tensor, backward, check_gradient, mean_square, stack

TINY = DenoiserConfig(channels=2, factor=1, d=8, dk=4, dv=4, d_e=6, stages=(1, 1), temb_dim=8)


def _inputs(config: DenoiserConfig, rng, batch=None, h=4, w=4):
    shape = (h, w, config.image_channels) if batch is None else (batch, h, w, config.image_channels)
    cshape = shape[:-1] + (config.cond_channels,)
    return rng.standard_normal(shape), rng.standard_normal(cshape), rng.standard_normal((3, config.d_e))


class TestShapes:
    def test_single_sample_shape(self):
        rng = np.random.default_rng(0)
        params = init_denoiser(TINY, rng)
        x, cond, e = _inputs(TINY, rng)
        out = denoise(x, 17, cond, e, params)
        assert out.shape == x.shape

    def test_batched_shape(self):
        rng = np.random.default_rng(1)
        params = init_denoiser(TINY, rng)
        x, cond, e = _inputs(TINY, rng, batch=3)
        out = denoise(x, np.array([1, 500, 999]), cond, e, params)
        assert out.shape == x.shape

    def test_zero_init_predicts_zero(self):
        rng = np.random.default_rng(2)
        params = init_denoiser(TINY, rng, zero_residual=True)
        x, cond, e = _inputs(TINY, rng)
        np.testing.assert_array_equal(denoise(x, 5, cond, e, params).numpy(), np.zeros(x.shape))

    def test_head_skip_mixes_latent_and_masked_image_per_timestep(self):
        # With the block stack zeroed, output is exactly the head skip.
        rng = np.random.default_rng(6)
        params = init_denoiser(TINY, rng, zero_residual=True)
        params.skip_w.data[:] = rng.standard_normal(params.skip_w.data.shape)
        x, cond, e = _inputs(TINY, rng)
        for t in (0, 123, 999):
            a, bk = timestep_embedding(t, TINY.temb_dim) @ params.skip_w.numpy()
            want = a * x + bk * cond[..., 1:]
            np.testing.assert_allclose(denoise(x, t, cond, e, params).numpy(), want, atol=1e-14)

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(3)
        params = init_denoiser(TINY, rng, zero_residual=False)
        x, cond, e = _inputs(TINY, rng, batch=3)
        t = np.array([4, 40, 400])
        batched = denoise(x, t, cond, e, params).numpy()
        for i in range(3):
            single = denoise(x[i], int(t[i]), cond[i], e, params).numpy()
            # GEMM blocking differs between stacked and single operands, so
            # agreement is at rounding level rather than bitwise.
            np.testing.assert_allclose(batched[i], single, rtol=1e-12, atol=1e-13)

    def test_grid_not_divisible_raises(self):
        rng = np.random.default_rng(4)
        params = init_denoiser(TINY, rng)
        x, cond, e = _inputs(TINY, rng, h=5, w=4)
        with pytest.raises(ShapeError, match="not divisible"):
            denoise(x, 0, cond, e, params)

    def test_channel_mismatch_raises(self):
        rng = np.random.default_rng(5)
        params = init_denoiser(TINY, rng)
        x, cond, e = _inputs(TINY, rng)
        with pytest.raises(ShapeError, match="conditioning channels"):
            denoise(x, 0, cond[..., :-1], e, params)
        with pytest.raises(ShapeError, match="latent channels"):
            denoise(x[..., :-1], 0, cond, e, params)


class TestBatchInvariance:
    """Each row of a batched call at a scalar t has the bits of the batch-1 call.

    Guided sampling and eval stack items and guidance branches into one
    call, so their results must not depend on what shares the batch.
    """

    CASES = {
        "default": (DenoiserConfig(), 1),
        "heads2-three-levels": (DenoiserConfig(heads=2, stages=(1, 1, 1)), 1),
        "three-tokens": (DenoiserConfig(), 3),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rows_match_batch_one_bitwise(self, case):
        config, m = self.CASES[case]
        rng = np.random.default_rng(13)
        params = init_denoiser(config, rng, zero_residual=False)
        params.skip_w.data[:] = rng.standard_normal(params.skip_w.data.shape)
        batch = 4
        x, cond, _ = _inputs(config, rng, batch=batch, h=8, w=8)
        shared = rng.standard_normal((m, config.d_e))
        per_row = rng.standard_normal((batch, m, config.d_e))
        for t in (0, 500, 999):
            for e in (shared, per_row):
                out = denoise(x, t, cond, e, params).numpy()
                for i in range(batch):
                    one = denoise(x[i], t, cond[i], e if e.ndim == 2 else e[i], params).numpy()
                    assert np.array_equal(out[i], one), (case, t, e.ndim, i)

    def test_scalar_t_gradient_gathers_every_row(self):
        # A scalar t feeds one time-MLP row to every batch row, so its
        # cotangent must sum over all of them.
        rng = np.random.default_rng(14)
        params = init_denoiser(TINY, rng, zero_residual=False)
        params.skip_w.data[:] = rng.standard_normal(params.skip_w.data.shape)
        x, cond, e = _inputs(TINY, rng, batch=2)
        for name in ("time_w1", "skip_w"):
            original = getattr(params, name)

            def f(p: Tensor) -> Tensor:
                setattr(params, name, p)
                try:
                    return mean_square(denoise(x, 300, cond, e, params))
                finally:
                    setattr(params, name, original)

            report = check_gradient(f, Tensor(original.data.copy(), requires_grad=True),
                                    max_probes=6, rng=np.random.default_rng(2))
            assert report.ok(rel_tol=1e-4, abs_tol=1e-6), (name, report)


class TestGridFolding:
    def test_fold_then_unfold_is_identity(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((2, 6, 4, 5)))
        np.testing.assert_array_equal(_unfold_grid(_fold_grid(x)).numpy(), x.numpy())

    def test_fold_collects_each_cell(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 2, 2, 4)
        folded = _fold_grid(Tensor(x)).numpy()
        assert folded.shape == (1, 1, 1, 16)
        # Row-major cell order: (0,0), (0,1), (1,0), (1,1).
        np.testing.assert_array_equal(folded.reshape(-1), np.arange(16))


class TestTimestepEmbedding:
    def test_shapes(self):
        assert timestep_embedding(3, 8).shape == (8,)
        assert timestep_embedding(np.array([1, 2, 5]), 8).shape == (3, 8)

    def test_scalar_matches_vector_row(self):
        vec = timestep_embedding(np.array([0, 9, 100]), 16)
        for i, t in enumerate([0, 9, 100]):
            np.testing.assert_array_equal(vec[i], timestep_embedding(t, 16))

    def test_bounded_and_distinct(self):
        emb = timestep_embedding(np.arange(100), 32)
        assert np.abs(emb).max() <= 1.0
        assert len(np.unique(emb.round(12), axis=0)) == 100

    def test_timestep_changes_output(self):
        rng = np.random.default_rng(7)
        params = init_denoiser(TINY, rng, zero_residual=False)
        x, cond, e = _inputs(TINY, rng)
        a = denoise(x, 1, cond, e, params).numpy()
        b = denoise(x, 900, cond, e, params).numpy()
        assert np.abs(a - b).max() > 1e-8


class TestPositionEmbedding:
    def test_every_grid_cell_is_distinct(self):
        emb = position_embedding(8, 8, 16)
        assert emb.shape == (8, 8, 16)
        flat = emb.reshape(64, 16)
        assert len(np.unique(flat.round(12), axis=0)) == 64

    def test_row_features_ignore_column(self):
        emb = position_embedding(5, 7, 16)
        np.testing.assert_array_equal(emb[:, 0, :8], emb[:, 6, :8])
        np.testing.assert_array_equal(emb[0, :, 8:], emb[4, :, 8:])

    def test_position_changes_output_for_uniform_input(self):
        rng = np.random.default_rng(9)
        params = init_denoiser(TINY, rng, zero_residual=False)
        x = np.ones((4, 4, TINY.image_channels)) * 0.3
        cond = np.ones((4, 4, TINY.cond_channels)) * 0.7
        e = rng.standard_normal((3, TINY.d_e))
        out = denoise(x, 10, cond, e, params).numpy().reshape(16, -1)
        assert len(np.unique(out.round(12), axis=0)) == 16


class TestCrossPattern:
    @staticmethod
    def _flags(params):
        flags = []
        for blocks in params.down_blocks:
            flags += [b.has_cross for b in blocks]
        flags += [b.has_cross for b in params.bottom_blocks]
        for blocks in params.up_blocks:
            flags += [b.has_cross for b in blocks]
        return flags

    def test_alternate_starts_on_and_toggles(self):
        cfg = DenoiserConfig(channels=2, factor=1, d=8, dk=4, dv=4, d_e=6, stages=(2, 1), temb_dim=8)
        params = init_denoiser(cfg, np.random.default_rng(0))
        # Order: two down blocks, one bottom, two up blocks.
        assert self._flags(params) == [True, False, True, False, True]

    def test_embedding_tokens_change_output(self):
        rng = np.random.default_rng(8)
        params = init_denoiser(TINY, rng, zero_residual=False)
        x, cond, e = _inputs(TINY, rng)
        a = denoise(x, 10, cond, e, params).numpy()
        b = denoise(x, 10, cond, e + 0.5, params).numpy()
        assert np.abs(a - b).max() > 1e-8


class TestNoDeadParameter:
    def test_every_parameter_gets_a_gradient_on_a_default_chunk(self):
        # Nonzero residual projections, so a zero gradient can only mean a
        # parameter that no path from the loss reaches.
        config = DenoiserConfig()
        rng = np.random.default_rng(0)
        params = init_denoiser(config, rng, zero_residual=False)
        table = init_embedding_table(config.e_dim, config.d_e, rng)
        named = {**params.named_params(), **table.named_params()}
        assert sum(t.data.size for t in named.values()) == 198_076
        cats = [Category.FOREGROUND, Category.BACKGROUND, Category.NULL] * 2 + [Category.FOREGROUND] * 2
        images = rng.random((8, 32, 32, config.channels))
        masks = (rng.random((8, 32, 32)) < 0.4).astype(np.uint8)
        z0, cond = map(np.stack, zip(*(build_conditioning(i, m, config.factor) for i, m in zip(images, masks))))
        t = rng.integers(0, 1000, size=8)
        eps = rng.standard_normal(z0.shape)
        with Tape() as tape:
            e = stack([embed(c, table) for c in cats], axis=0)
            loss = loss_given_noise(params, z0, cond, e, t, eps, make_schedule())
        grads = backward(tape, loss)
        zeros = {name: int((grads.get(p, np.zeros(p.shape)) == 0).sum()) for name, p in named.items()}
        assert {name: n for name, n in zeros.items() if n} == {}


class TestReceptiveField:
    """Any grid position must be able to influence any other.

    The self-decoding recurrence only carries state toward later tokens, so
    this holds only because odd-indexed blocks run the stream reversed.
    """

    def _response(self, src, dst):
        rng = np.random.default_rng(11)
        params = init_denoiser(TINY, rng, zero_residual=False)
        x, cond, e = _inputs(TINY, rng)
        base = denoise(x, 10, cond, e, params).numpy()
        bumped = x.copy()
        bumped[src] += 1.0
        moved = denoise(bumped, 10, cond, e, params).numpy()
        return np.abs(moved[dst] - base[dst]).max()

    def test_first_position_reaches_last(self):
        assert self._response((0, 0), (3, 3)) > 1e-8

    def test_last_position_reaches_first(self):
        assert self._response((3, 3), (0, 0)) > 1e-8


class TestGradients:
    def test_gradient_reaches_every_parameter(self):
        rng = np.random.default_rng(9)
        params = init_denoiser(TINY, rng, zero_residual=False)
        x, cond, e = _inputs(TINY, rng)
        with Tape() as tape:
            loss = mean_square(denoise(x, 7, cond, e, params))
        grads = backward(tape, loss)
        for name, tensor in params.named_params().items():
            assert tensor in grads, name
            assert np.abs(grads[tensor]).max() > 0, f"zero gradient for {name}"

    # Each target names a parameter slot: (reach the holder, attribute or index).
    TARGETS = {
        "in.proj": lambda P: (P, "in_proj"),
        "down-gla-wq": lambda P: (P.down_blocks[0][0].gla, "w_q"),
        "up-merge": lambda P: (P.up_merge, 0),
        "out.proj": lambda P: (P, "out_proj"),
    }

    @staticmethod
    def _swap(holder, key, value):
        if isinstance(key, int):
            holder[key] = value
        else:
            setattr(holder, key, value)

    @pytest.mark.parametrize("target", sorted(TARGETS))
    def test_finite_difference_on_probed_coordinates(self, target):
        rng = np.random.default_rng(10)
        params = init_denoiser(TINY, rng, zero_residual=False)
        x, cond, e = _inputs(TINY, rng)
        holder, key = self.TARGETS[target](params)
        original = holder[key] if isinstance(key, int) else getattr(holder, key)

        def f(p: Tensor) -> Tensor:
            self._swap(holder, key, p)
            try:
                return mean_square(denoise(x, 3, cond, e, params))
            finally:
                self._swap(holder, key, original)

        report = check_gradient(f, Tensor(original.data.copy(), requires_grad=True),
                                max_probes=6, rng=np.random.default_rng(0))
        assert report.ok(rel_tol=1e-4, abs_tol=1e-6), report

    def test_finite_difference_on_input(self):
        rng = np.random.default_rng(11)
        params = init_denoiser(TINY, rng, zero_residual=False)
        x, cond, e = _inputs(TINY, rng)

        def f(p: Tensor) -> Tensor:
            return mean_square(denoise(p, 3, cond, e, params))

        report = check_gradient(f, Tensor(x, requires_grad=True),
                                max_probes=8, rng=np.random.default_rng(1))
        assert report.ok(rel_tol=1e-4, abs_tol=1e-6), report


def test_determinism():
    rng = np.random.default_rng(12)
    params = init_denoiser(TINY, rng, zero_residual=False)
    x, cond, e = _inputs(TINY, rng)
    a = denoise(x, 123, cond, e, params).numpy()
    b = denoise(x, 123, cond, e, params).numpy()
    np.testing.assert_array_equal(a, b)
