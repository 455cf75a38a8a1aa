"""Diffusion over image latents: schedule, corruption, loss, guided sampling.

Pixel latents live in [0, 1]; the diffusion process runs on their affine
image ``z = 2x - 1`` so the stationary distribution is centered. That
normalization happens here, not in the latent codec, which stays a
bit-exact reshaping layer.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .codec import composite, decode_output, encode_image, encode_mask
from .conditioning import Category, LcgEmbeddingTable, embed
from .denoiser import DenoiserParams, denoise
from .tensor import Tensor, mean_square, sub

__all__ = [
    "DiffusionSchedule",
    "make_schedule",
    "normalize_latent",
    "unnormalize_latent",
    "build_conditioning",
    "q_sample",
    "loss_given_noise",
    "negative_category",
    "cfg_predict",
    "sample_timesteps",
    "sample",
    "masked_l1",
]


@dataclass(frozen=True)
class DiffusionSchedule:
    betas: np.ndarray
    alphas: np.ndarray
    alpha_bars: np.ndarray

    @property
    def timesteps(self) -> int:
        return len(self.betas)


def make_schedule(timesteps: int = 1000, beta_start: float = 1e-4, beta_end: float = 2e-2) -> DiffusionSchedule:
    if timesteps < 1:
        raise ValueError(f"timesteps must be positive, got {timesteps}")
    if not 0.0 < beta_start <= beta_end < 1.0:
        raise ValueError(f"need 0 < beta_start <= beta_end < 1, got {beta_start}, {beta_end}")
    betas = np.linspace(beta_start, beta_end, timesteps, dtype=np.float64)
    alphas = 1.0 - betas
    return DiffusionSchedule(betas=betas, alphas=alphas, alpha_bars=np.cumprod(alphas))


def normalize_latent(x: np.ndarray) -> np.ndarray:
    """[0, 1] pixel latent to the centered diffusion variable."""
    return 2.0 * np.asarray(x, dtype=np.float64) - 1.0


def unnormalize_latent(z: np.ndarray) -> np.ndarray:
    return np.clip((np.asarray(z, dtype=np.float64) + 1.0) / 2.0, 0.0, 1.0)


def build_conditioning(image: np.ndarray, mask: np.ndarray, factor: int) -> tuple[np.ndarray, np.ndarray]:
    """Encode one sample for the denoiser.

    Returns ``(z0, cond)``: the centered clean image latent and the
    conditioning planes (mask latent plus centered masked-image latent).
    """
    image = np.asarray(image, dtype=np.float64)
    masked = image * (1.0 - np.asarray(mask, dtype=image.dtype))[..., None]
    z0 = normalize_latent(encode_image(image, factor))
    cond = np.concatenate(
        [encode_mask(mask, factor), normalize_latent(encode_image(masked, factor))], axis=-1
    )
    return z0, cond


def q_sample(x0: np.ndarray, t, eps: np.ndarray, schedule: DiffusionSchedule) -> np.ndarray:
    """Forward corruption: sqrt(abar_t) x0 + sqrt(1 - abar_t) eps.

    ``t`` is a scalar timestep or one per leading batch row.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise ValueError(f"q_sample: x0 shape {x0.shape} != eps shape {eps.shape}")
    abar = schedule.alpha_bars[np.asarray(t)]
    if np.ndim(abar) == 1:
        abar = abar.reshape((-1,) + (1,) * (x0.ndim - 1))
    return np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * eps


def loss_given_noise(
    params: DenoiserParams,
    z0: np.ndarray,
    cond: np.ndarray,
    e,
    t: np.ndarray,
    eps: np.ndarray,
    schedule: DiffusionSchedule,
) -> Tensor:
    """Mean squared noise-prediction error for one batch, given its draws.

    Separating the random draws from the loss lets the trainer fix its
    random streams independently of how work is chunked across threads.
    """
    x_t = q_sample(z0, t, eps, schedule)
    eps_hat = denoise(x_t, t, cond, e, params)
    return mean_square(sub(eps_hat, Tensor(eps)))


def negative_category(category: Category, mode: str) -> Category:
    """The category whose prediction is steered away from during guidance."""
    if mode == "null":
        return Category.NULL
    if mode == "opposite":
        if category is Category.FOREGROUND:
            return Category.BACKGROUND
        if category is Category.BACKGROUND:
            return Category.FOREGROUND
        return Category.NULL
    raise ValueError(f"guidance mode must be 'null' or 'opposite', got {mode!r}")


def cfg_predict(x_t, t, cond, e_cond, e_neg, params: DenoiserParams, scale: float) -> np.ndarray:
    """Guided noise estimate eps_neg + scale * (eps_cond - eps_neg) at a scalar ``t``.

    ``x_t`` and ``cond`` are one item or N stacked items; ``e_cond`` and
    ``e_neg`` are shared (m, d_e) tokens or one (N, m, d_e) set per item.
    Both branches run as one ``denoise`` call, conditional rows first, which
    gives the same bits as two separate calls (see ``denoise``). At scale 1
    the conditional prediction is returned as computed, with no arithmetic
    detour through the negative branch.
    """
    if scale == 1.0:
        return denoise(x_t, t, cond, e_cond, params).numpy()
    x_t, cond = np.asarray(x_t), np.asarray(cond)
    single = x_t.ndim == 3
    if single:
        x_t, cond = x_t[None], cond[None]
    n = x_t.shape[0]
    e_shape = (n,) + np.shape(e_cond)[-2:]
    e = np.concatenate([np.broadcast_to(e_cond, e_shape), np.broadcast_to(e_neg, e_shape)])
    eps = denoise(np.concatenate([x_t, x_t]), t, np.concatenate([cond, cond]), e, params).numpy()
    eps_c, eps_n = eps[:n], eps[n:]
    guided = eps_n + scale * (eps_c - eps_n)
    return guided[0] if single else guided


def sample_timesteps(timesteps: int, steps: int) -> np.ndarray:
    """Descending strided subset of the training timesteps, ending at 0."""
    if not 1 <= steps <= timesteps:
        raise ValueError(f"steps must lie in [1, {timesteps}], got {steps}")
    grid = np.linspace(0, timesteps - 1, steps)
    return np.unique(np.round(grid).astype(np.int64))[::-1]


def sample(
    params: DenoiserParams,
    schedule: DiffusionSchedule,
    table: LcgEmbeddingTable,
    masked_image: np.ndarray,
    mask: np.ndarray,
    category: Category | Sequence[Category],
    rng: np.random.Generator | Sequence[np.random.Generator],
    steps: int = 50,
    scale: float = 2.0,
    guidance: str = "null",
    latent_composite: bool = False,
) -> np.ndarray:
    """Fill the masked region of ``masked_image`` by ancestral sampling.

    ``masked_image`` must already be zeroed under the mask. The returned
    image keeps unmasked pixels bit-identical and replaces masked ones with
    the decoded sample. With ``latent_composite`` the known region is also
    re-imposed at every step in latent space.

    One item is an (H, W, 3) image, an (H, W) mask, a ``Category`` and a
    generator. N items are an (N, H, W, 3) stack, an (N, H, W) stack, a
    sequence of N categories and a sequence of N generators; they return
    (N, H, W, 3). Item k draws its initial, per-step and composite noise
    from its own generator in the single-item order, and every step makes
    one ``denoise`` call for all items, so each item's bits do not depend
    on the items sampled beside it.
    """
    single = np.ndim(masked_image) == 3
    if single:
        masked_image, mask, category, rng = [masked_image], [mask], [category], [rng]
    if not len(masked_image) == len(mask) == len(category) == len(rng):
        raise ValueError(
            f"sample: {len(masked_image)} images, {len(mask)} masks, {len(category)} categories "
            f"and {len(rng)} generators"
        )
    factor = params.config.factor
    built = [build_conditioning(image, m, factor) for image, m in zip(masked_image, mask)]
    z_known = np.stack([z for z, _ in built])
    cond = np.stack([c for _, c in built])
    mask_latent = cond[..., :1]
    e_cond = np.stack([embed(c, table).numpy() for c in category])
    e_neg = np.stack([embed(negative_category(c, guidance), table).numpy() for c in category])

    def noise() -> np.ndarray:
        return np.stack([g.standard_normal(z_known.shape[1:]) for g in rng])

    x = noise()
    t_seq = sample_timesteps(schedule.timesteps, steps)
    for i, t in enumerate(t_seq):
        t = int(t)
        eps = cfg_predict(x, t, cond, e_cond, e_neg, params, scale)
        abar_t = schedule.alpha_bars[t]
        x0_hat = (x - np.sqrt(1.0 - abar_t) * eps) / np.sqrt(abar_t)
        x0_hat = np.clip(x0_hat, -1.0, 1.0)
        if i + 1 == len(t_seq):
            x = x0_hat
            break
        t_next = int(t_seq[i + 1])
        abar_s = schedule.alpha_bars[t_next]
        var = (1.0 - abar_s) / (1.0 - abar_t) * (1.0 - abar_t / abar_s)
        mean = np.sqrt(abar_s) * x0_hat + np.sqrt(max(1.0 - abar_s - var, 0.0)) * eps
        x = mean + np.sqrt(var) * noise()
        if latent_composite:
            # Re-impose the known region at the new noise level.
            known_t = q_sample(z_known, t_next, noise(), schedule)
            x = mask_latent * x + (1.0 - mask_latent) * known_t

    out = np.stack([
        composite(image, decode_output(unnormalize_latent(z), factor), m)
        for image, z, m in zip(masked_image, x, mask)
    ])
    return out[0] if single else out


def masked_l1(original: np.ndarray, generated: np.ndarray, mask: np.ndarray) -> float:
    """Mean absolute error over masked pixels only."""
    sel = np.asarray(mask, bool)
    if not sel.any():
        raise ValueError("masked_l1: mask selects no pixels")
    diff = np.abs(np.asarray(original, np.float64) - np.asarray(generated, np.float64))
    return float(diff[sel].mean())


def masked_psnr(
    original: np.ndarray,
    generated: np.ndarray,
    mask: np.ndarray,
    peak: float = 1.0,
    cap: float = 99.0,
) -> float:
    """Peak signal-to-noise ratio in dB over masked pixels, capped at ``cap``.

    The cap doubles as the identical-pair sentinel, since zero error would
    otherwise be infinite.
    """
    sel = np.asarray(mask, bool)
    if not sel.any():
        raise ValueError("masked_psnr: mask selects no pixels")
    diff = np.asarray(original, np.float64) - np.asarray(generated, np.float64)
    mse = float(np.square(diff[sel]).mean())
    if mse == 0.0:
        return cap
    return min(cap, float(10.0 * np.log10(peak * peak / mse)))
