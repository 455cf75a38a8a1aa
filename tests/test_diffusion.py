"""Schedule math, guided prediction, the sampler loop, and eval helpers."""

import numpy as np
import pytest

from lcgdiff.conditioning import Category, MaskKind, init_embedding_table
from lcgdiff.config import default_config, schedule_config
from lcgdiff.dataforge import ImageMaskSample
from lcgdiff.denoiser import DenoiserConfig, denoise, init_denoiser
from lcgdiff.diffusion import (
    build_conditioning,
    cfg_predict,
    loss_given_noise,
    make_schedule,
    masked_l1,
    masked_psnr,
    negative_category,
    normalize_latent,
    q_sample,
    sample,
    sample_timesteps,
    unnormalize_latent,
)
from lcgdiff.trainer import TAG_EVAL, TAG_INIT, build_model, evaluate_samples, step_rng

CFG = DenoiserConfig(channels=3, factor=2, d=8, dk=4, dv=4, d_e=6, stages=(1, 1), temb_dim=8)


def _model(seed=0, zero_residual=False):
    rng = np.random.default_rng(seed)
    params = init_denoiser(CFG, rng, zero_residual=zero_residual)
    table = init_embedding_table(e_dim=5, d_e=CFG.d_e, rng=rng)
    return params, table


class TestSchedule:
    def test_linear_endpoints_and_length(self):
        sched = make_schedule()
        assert sched.timesteps == 1000
        assert sched.betas[0] == 1e-4
        assert sched.betas[-1] == 2e-2
        steps = np.diff(sched.betas)
        np.testing.assert_allclose(steps, steps[0], rtol=1e-9)

    def test_alpha_bars_decrease_to_near_zero(self):
        sched = make_schedule()
        assert np.all(np.diff(sched.alpha_bars) < 0)
        assert 0.0 < sched.alpha_bars[-1] < 1e-3
        np.testing.assert_allclose(sched.alpha_bars[0], 1.0 - 1e-4)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            make_schedule(timesteps=0)
        with pytest.raises(ValueError):
            make_schedule(beta_start=0.5, beta_end=0.1)


class TestQSample:
    def test_zero_noise_scales_signal(self):
        sched = make_schedule()
        x0 = np.random.default_rng(0).standard_normal((4, 4, 2))
        out = q_sample(x0, 100, np.zeros_like(x0), sched)
        np.testing.assert_allclose(out, np.sqrt(sched.alpha_bars[100]) * x0, rtol=1e-15)

    def test_zero_signal_scales_noise(self):
        sched = make_schedule()
        eps = np.random.default_rng(1).standard_normal((4, 4, 2))
        out = q_sample(np.zeros_like(eps), 500, eps, sched)
        np.testing.assert_allclose(out, np.sqrt(1 - sched.alpha_bars[500]) * eps, rtol=1e-15)

    def test_per_row_timesteps(self):
        sched = make_schedule()
        rng = np.random.default_rng(2)
        x0 = rng.standard_normal((3, 4, 4, 2))
        eps = rng.standard_normal((3, 4, 4, 2))
        t = np.array([0, 500, 999])
        batched = q_sample(x0, t, eps, sched)
        for i in range(3):
            np.testing.assert_array_equal(batched[i], q_sample(x0[i], int(t[i]), eps[i], sched))

    def test_shape_mismatch_rejected(self):
        sched = make_schedule()
        with pytest.raises(ValueError, match="shape"):
            q_sample(np.zeros((2, 2)), 0, np.zeros((3, 2)), sched)


class TestNormalization:
    def test_roundtrip_within_float_noise(self):
        x = np.linspace(0.0, 1.0, 1001)
        np.testing.assert_allclose(unnormalize_latent(normalize_latent(x)), x, atol=1e-15)

    def test_endpoints_exact(self):
        assert normalize_latent(np.array([0.0]))[0] == -1.0
        assert normalize_latent(np.array([1.0]))[0] == 1.0
        assert unnormalize_latent(np.array([-1.0]))[0] == 0.0
        assert unnormalize_latent(np.array([1.0]))[0] == 1.0

    def test_unnormalize_clips(self):
        np.testing.assert_array_equal(unnormalize_latent(np.array([-3.0, 3.0])), [0.0, 1.0])


class TestConditioning:
    def test_shapes_and_mask_plane(self):
        rng = np.random.default_rng(3)
        image = rng.random((8, 8, 3))
        mask = (rng.random((8, 8)) < 0.4).astype(np.uint8)
        z0, cond = build_conditioning(image, mask, factor=2)
        assert z0.shape == (4, 4, 12)
        assert cond.shape == (4, 4, 13)
        assert z0.min() >= -1.0 and z0.max() <= 1.0
        # First conditioning plane is the pooled mask.
        cell_any = mask.reshape(4, 2, 4, 2).max(axis=(1, 3))
        np.testing.assert_array_equal(cond[..., 0], cell_any)

    def test_masked_plane_is_centered_masked_image(self):
        rng = np.random.default_rng(4)
        image = rng.random((4, 4, 3))
        mask = np.zeros((4, 4), np.uint8)
        mask[0, 0] = 1
        z0, cond = build_conditioning(image, mask, factor=1)
        masked = image.copy()
        masked[0, 0] = 0.0
        np.testing.assert_allclose(cond[..., 1:], 2.0 * masked - 1.0, rtol=0, atol=0)


class TestLoss:
    def test_zero_init_loss_is_noise_power(self):
        params, table = _model(zero_residual=True)
        sched = make_schedule(timesteps=50)
        rng = np.random.default_rng(5)
        z0 = rng.standard_normal((2, 4, 4, 12)) * 0.5
        cond = rng.standard_normal((2, 4, 4, 13))
        eps = rng.standard_normal(z0.shape)
        e = rng.standard_normal((2, 2, CFG.d_e))
        t = np.array([3, 40])
        loss = loss_given_noise(params, z0, cond, e, t, eps, sched)
        assert loss.numpy() == np.mean(eps * eps)

    def test_loss_decreases_toward_true_noise_direction(self):
        # Not an optimization test: only that the loss is larger for a
        # perturbed noise target than for the exact one.
        params, table = _model(zero_residual=True)
        sched = make_schedule(timesteps=50)
        rng = np.random.default_rng(6)
        z0 = rng.standard_normal((1, 4, 4, 12))
        cond = rng.standard_normal((1, 4, 4, 13))
        eps = rng.standard_normal(z0.shape)
        e = rng.standard_normal((1, 2, CFG.d_e))
        t = np.array([10])
        base = loss_given_noise(params, z0, cond, e, t, eps, sched).numpy()
        worse = loss_given_noise(params, z0, cond, e, t, eps * 1.5, sched).numpy()
        assert worse > base


class TestGuidance:
    def test_negative_category_mapping(self):
        assert negative_category(Category.FOREGROUND, "null") is Category.NULL
        assert negative_category(Category.BACKGROUND, "null") is Category.NULL
        assert negative_category(Category.FOREGROUND, "opposite") is Category.BACKGROUND
        assert negative_category(Category.BACKGROUND, "opposite") is Category.FOREGROUND
        assert negative_category(Category.NULL, "opposite") is Category.NULL
        with pytest.raises(ValueError, match="guidance mode"):
            negative_category(Category.NULL, "sideways")

    def test_scale_one_returns_conditional_exactly(self):
        params, table = _model(1)
        rng = np.random.default_rng(7)
        x_t = rng.standard_normal((4, 4, 12))
        cond = rng.standard_normal((4, 4, 13))
        e_c = rng.standard_normal((2, CFG.d_e))
        e_n = rng.standard_normal((2, CFG.d_e))
        out = cfg_predict(x_t, 9, cond, e_c, e_n, params, scale=1.0)
        np.testing.assert_array_equal(out, denoise(x_t, 9, cond, e_c, params).numpy())

    def test_prediction_is_affine_in_scale(self):
        params, table = _model(2)
        rng = np.random.default_rng(8)
        x_t = rng.standard_normal((4, 4, 12))
        cond = rng.standard_normal((4, 4, 13))
        e_c = rng.standard_normal((2, CFG.d_e))
        e_n = rng.standard_normal((2, CFG.d_e))
        outs = {s: cfg_predict(x_t, 9, cond, e_c, e_n, params, scale=s) for s in (0.0, 1.0, 2.0, 4.0)}
        eps_c = denoise(x_t, 9, cond, e_c, params).numpy()
        eps_n = denoise(x_t, 9, cond, e_n, params).numpy()
        np.testing.assert_array_equal(outs[0.0], eps_n)
        for s in (2.0, 4.0):
            np.testing.assert_allclose(outs[s], eps_n + s * (eps_c - eps_n), rtol=0, atol=1e-12)
        np.testing.assert_allclose(outs[4.0] - outs[1.0], 3.0 * (outs[2.0] - outs[1.0]), atol=1e-10)

    def test_one_call_matches_two_calls_bitwise(self):
        params, _ = _model(3)
        params.skip_w.data[:] = np.random.default_rng(4).standard_normal(params.skip_w.data.shape)
        rng = np.random.default_rng(9)
        x_t = rng.standard_normal((3, 4, 4, 12))
        cond = rng.standard_normal((3, 4, 4, 13))
        e_c = rng.standard_normal((3, 2, CFG.d_e))
        e_n = rng.standard_normal((2, CFG.d_e))
        s = 2.0
        stacked = cfg_predict(x_t, 9, cond, e_c, e_n, params, scale=s)
        for k in range(3):
            eps_c = denoise(x_t[k], 9, cond[k], e_c[k], params).numpy()
            eps_n = denoise(x_t[k], 9, cond[k], e_n, params).numpy()
            want = eps_n + s * (eps_c - eps_n)
            assert np.array_equal(cfg_predict(x_t[k], 9, cond[k], e_c[k], e_n, params, scale=s), want)
            assert np.array_equal(stacked[k], want)


class TestSampler:
    def test_timestep_grid(self):
        seq = sample_timesteps(1000, 50)
        assert len(seq) == 50
        assert seq[0] == 999 and seq[-1] == 0
        assert np.all(np.diff(seq) < 0)
        np.testing.assert_array_equal(sample_timesteps(1000, 1), [0])
        with pytest.raises(ValueError):
            sample_timesteps(1000, 0)

    def _scene(self, seed=9):
        rng = np.random.default_rng(seed)
        image = rng.random((8, 8, 3)).astype(np.float64)
        mask = np.zeros((8, 8), np.uint8)
        mask[2:6, 2:6] = 1
        masked = image * (1 - mask[..., None])
        return image, mask, masked

    def test_output_range_shape_and_unmasked_pixels(self):
        params, table = _model(3)
        sched = make_schedule(timesteps=40)
        image, mask, masked = self._scene()
        out = sample(params, sched, table, masked, mask, Category.FOREGROUND,
                     np.random.default_rng(0), steps=5, scale=2.0)
        assert out.shape == image.shape
        assert out.min() >= 0.0 and out.max() <= 1.0
        keep = ~mask.astype(bool)
        np.testing.assert_array_equal(out[keep], masked[keep])

    def test_deterministic_given_rng_seed(self):
        params, table = _model(4)
        sched = make_schedule(timesteps=40)
        _, mask, masked = self._scene()
        a = sample(params, sched, table, masked, mask, Category.BACKGROUND,
                   np.random.default_rng(11), steps=4)
        b = sample(params, sched, table, masked, mask, Category.BACKGROUND,
                   np.random.default_rng(11), steps=4)
        np.testing.assert_array_equal(a, b)

    def test_latent_composite_path_runs(self):
        params, table = _model(5)
        sched = make_schedule(timesteps=40)
        _, mask, masked = self._scene()
        out = sample(params, sched, table, masked, mask, Category.FOREGROUND,
                     np.random.default_rng(2), steps=4, latent_composite=True)
        keep = ~mask.astype(bool)
        np.testing.assert_array_equal(out[keep], masked[keep])

    def test_guidance_modes_give_different_samples(self):
        params, table = _model(6)
        sched = make_schedule(timesteps=40)
        _, mask, masked = self._scene()
        a = sample(params, sched, table, masked, mask, Category.FOREGROUND,
                   np.random.default_rng(3), steps=4, scale=3.0, guidance="null")
        b = sample(params, sched, table, masked, mask, Category.FOREGROUND,
                   np.random.default_rng(3), steps=4, scale=3.0, guidance="opposite")
        assert np.abs(a - b).max() > 0


class TestBatchedSampling:
    """N stacked items give the bits of N single-item calls."""

    CATS = (Category.FOREGROUND, Category.BACKGROUND, Category.NULL)

    @staticmethod
    def _items():
        rng = np.random.default_rng(21)
        images = rng.random((3, 8, 8, 3))
        masks = np.zeros((3, 8, 8), np.uint8)
        masks[0, 2:6, 2:6] = 1
        masks[1, :4] = 1
        masks[2, 1:7, 4:8] = 1
        return images * (1 - masks[..., None]), masks

    @staticmethod
    def _live_model():
        params, table = _model(12)
        params.skip_w.data[:] = np.random.default_rng(13).standard_normal(params.skip_w.data.shape)
        return params, table

    @pytest.mark.parametrize("latent_composite", [False, True])
    @pytest.mark.parametrize("guidance", ["null", "opposite"])
    @pytest.mark.parametrize("scale", [1.0, 2.0])
    def test_stack_matches_per_item_calls_bitwise(self, scale, guidance, latent_composite):
        params, table = self._live_model()
        sched = make_schedule(timesteps=40)
        masked, masks = self._items()
        kw = dict(steps=4, scale=scale, guidance=guidance, latent_composite=latent_composite)
        stacked = sample(params, sched, table, masked, masks, list(self.CATS),
                         [np.random.default_rng(30 + k) for k in range(3)], **kw)
        assert stacked.shape == masked.shape
        for k in range(3):
            one = sample(params, sched, table, masked[k], masks[k], self.CATS[k],
                         np.random.default_rng(30 + k), **kw)
            assert np.array_equal(stacked[k], one), k

    def test_length_mismatch_rejected(self):
        params, table = self._live_model()
        masked, masks = self._items()
        with pytest.raises(ValueError, match="2 generators"):
            sample(params, make_schedule(timesteps=40), table, masked, masks, list(self.CATS),
                   [np.random.default_rng(k) for k in range(2)], steps=2)

    def test_evaluate_samples_matches_per_item_loop(self):
        config = default_config()
        config.model.d, config.model.dk, config.model.dv = 8, 4, 4
        config.model.d_e, config.model.e_dim, config.model.temb_dim = 6, 5, 8
        config.schedule.timesteps = 40
        config.eval.steps = 3
        params, table = build_model(config, step_rng(0, TAG_INIT, 0))
        rng = np.random.default_rng(22)
        for tensor in {**params.named_params(), **table.named_params()}.values():
            tensor.data[...] += 0.1 * rng.standard_normal(tensor.data.shape)
        heldout = []
        for k, category in enumerate(self.CATS):
            mask = np.zeros((16, 16), np.uint8)
            mask[k : k + 9, 2 * k : 2 * k + 7] = 1
            heldout.append(ImageMaskSample(rng.random((16, 16, 3)).astype(np.float32), mask, category,
                                           MaskKind.RANDOM_BRUSH, k))
        schedule = schedule_config(config)
        scored = evaluate_samples(config, params, table, schedule, heldout, count=3, seed=17)
        assert len(scored) == 3
        for k, (rec, got) in enumerate(zip(heldout, scored)):
            image = np.asarray(rec.image, np.float64)
            masked = image * (1.0 - rec.mask.astype(np.float64))[..., None]
            out = sample(params, schedule, table, masked, rec.mask, rec.category, step_rng(17, TAG_EVAL, k),
                         steps=3, scale=config.sample.scale, guidance=config.sample.guidance,
                         latent_composite=config.sample.latent_composite)
            assert got.l1 == masked_l1(image, out, rec.mask), k
            assert got.psnr == masked_psnr(image, out, rec.mask), k
            assert got.coverage == float(rec.mask.mean()), k


class TestMaskedL1:
    def test_hand_value(self):
        orig = np.zeros((2, 2, 1))
        gen = np.ones((2, 2, 1))
        mask = np.array([[1, 0], [0, 0]], dtype=np.uint8)
        assert masked_l1(orig, gen, mask) == 1.0

    def test_unmasked_pixels_ignored(self):
        orig = np.zeros((2, 2, 1))
        gen = np.full((2, 2, 1), 0.25)
        gen[1, 1, 0] = 99.0
        mask = np.array([[1, 1], [1, 0]], dtype=np.uint8)
        assert masked_l1(orig, gen, mask) == 0.25

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="no pixels"):
            masked_l1(np.zeros((2, 2, 1)), np.zeros((2, 2, 1)), np.zeros((2, 2), np.uint8))


class TestMaskedPsnr:
    MASK = np.array([[1, 1], [1, 0]], dtype=np.uint8)

    def test_identical_pair_hits_the_cap(self):
        img = np.random.default_rng(0).random((2, 2, 3))
        assert masked_psnr(img, img.copy(), self.MASK) == 99.0

    def test_full_scale_error_is_zero_db(self):
        orig = np.zeros((2, 2, 3))
        gen = np.ones((2, 2, 3))
        assert masked_psnr(orig, gen, self.MASK) == 0.0

    def test_hand_value(self):
        orig = np.zeros((2, 2, 1))
        gen = np.full((2, 2, 1), 0.5)
        got = masked_psnr(orig, gen, self.MASK)
        np.testing.assert_allclose(got, 10.0 * np.log10(1.0 / 0.25), rtol=1e-12)

    def test_unmasked_pixels_ignored(self):
        orig = np.zeros((2, 2, 1))
        gen = np.full((2, 2, 1), 0.5)
        gen[1, 1, 0] = 1e6
        assert masked_psnr(orig, gen, self.MASK) == masked_psnr(orig, np.full((2, 2, 1), 0.5), self.MASK)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="no pixels"):
            masked_psnr(np.zeros((2, 2, 1)), np.zeros((2, 2, 1)), np.zeros((2, 2), np.uint8))
