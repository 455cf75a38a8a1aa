"""Noise-prediction network over latent token grids.

The noisy image latent and its conditioning planes are projected to a token
stream, pushed through interaction blocks arranged as a small U: blocks at
the full grid, a 2x2 token-grid fold between levels, blocks at the coarser
grid, then unfold with skip connections back up. Timestep and grid-position
embeddings are added to every token before the first block; without the
position term no token knows where it sits, and extrapolating structure
into a masked region needs coordinates.

Blocks with even global index add the category bias of the conditioning
embedding, so the category reaches the stream intermittently; block order is
down path, bottom, up path. Blocks with odd global index consume the token
stream in reversed order: the self-decoding recurrence only carries state
forward, so alternating its orientation is what lets any token inform any
other.

The output head adds an analytic skip, a(t) x_t + b(t) masked_latent with
learned per-timestep scalars. The noise target is an affine function of
x_t and the clean latent, and over the visible region the masked latent
*is* the clean latent, so the skip lets the head express that arithmetic
directly and leaves the block stack responsible only for the masked
region, which is the part that actually needs inference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blocks import InteractionParams, init_interaction_params, interaction_forward, norm_affine
from .tensor import (
    ShapeError,
    Tensor,
    add,
    as_tensor,
    concat,
    flip,
    matmul,
    mul,
    narrow,
    reshape,
    swish,
    transpose,
)

__all__ = [
    "DenoiserConfig",
    "DenoiserParams",
    "init_denoiser",
    "timestep_embedding",
    "position_embedding",
    "denoise",
]


@dataclass
class DenoiserConfig:
    channels: int = 3  # image channels before latent folding
    factor: int = 4  # latent codec folding factor
    d: int = 64  # token width
    dk: int = 16
    dv: int = 16
    heads: int = 1
    tau: float = 16.0
    d_e: int = 64  # width of conditioning embedding tokens
    e_dim: int = 20  # width of the per-category table rows lifted to d_e
    stages: tuple[int, ...] = (1, 1)  # blocks per level; last entry is the bottom
    mlp_ratio: int = 4
    temb_dim: int = 32

    @property
    def image_channels(self) -> int:
        return self.factor * self.factor * self.channels

    @property
    def cond_channels(self) -> int:
        # mask plane plus the masked-image latent
        return self.image_channels + 1

    @property
    def levels(self) -> int:
        return len(self.stages)


@dataclass
class DenoiserParams:
    config: DenoiserConfig
    in_proj: Tensor
    in_bias: Tensor
    time_w1: Tensor
    time_b1: Tensor
    time_w2: Tensor
    time_b2: Tensor
    pos_w: Tensor
    skip_w: Tensor
    down_blocks: list[list[InteractionParams]] = field(default_factory=list)
    down_merge: list[Tensor] = field(default_factory=list)  # (4d, d) per fold
    bottom_blocks: list[InteractionParams] = field(default_factory=list)
    up_expand: list[Tensor] = field(default_factory=list)  # (d, 4d) per unfold
    up_merge: list[Tensor] = field(default_factory=list)  # (2d, d) after skip concat
    up_blocks: list[list[InteractionParams]] = field(default_factory=list)
    out_norm_gamma: Tensor | None = None
    out_norm_beta: Tensor | None = None
    out_proj: Tensor | None = None
    out_bias: Tensor | None = None

    def named_params(self) -> dict[str, Tensor]:
        out = {
            "in.proj": self.in_proj,
            "in.bias": self.in_bias,
            "time.w1": self.time_w1,
            "time.b1": self.time_b1,
            "time.w2": self.time_w2,
            "time.b2": self.time_b2,
            "pos.w": self.pos_w,
            "skip.w": self.skip_w,
        }
        for lvl, blocks in enumerate(self.down_blocks):
            for i, block in enumerate(blocks):
                out.update({f"down{lvl}.block{i}.{k}": v for k, v in block.named_params().items()})
        for lvl, merge in enumerate(self.down_merge):
            out[f"down{lvl}.merge"] = merge
        for i, block in enumerate(self.bottom_blocks):
            out.update({f"bottom.block{i}.{k}": v for k, v in block.named_params().items()})
        for lvl in range(len(self.up_blocks)):
            out[f"up{lvl}.expand"] = self.up_expand[lvl]
            out[f"up{lvl}.merge"] = self.up_merge[lvl]
            for i, block in enumerate(self.up_blocks[lvl]):
                out.update({f"up{lvl}.block{i}.{k}": v for k, v in block.named_params().items()})
        out["out.norm.gamma"] = self.out_norm_gamma
        out["out.norm.beta"] = self.out_norm_beta
        out["out.proj"] = self.out_proj
        out["out.bias"] = self.out_bias
        return out


def init_denoiser(
    config: DenoiserConfig, rng: np.random.Generator, zero_residual: bool = True
) -> DenoiserParams:
    d = config.d

    def dense(fan_in: int, shape: tuple[int, ...]) -> Tensor:
        return Tensor(rng.standard_normal(shape) / np.sqrt(fan_in), requires_grad=True)

    def make_block(counter: list[int]) -> InteractionParams:
        block = init_interaction_params(
            d,
            config.dk,
            config.dv,
            config.d_e,
            rng,
            tau=config.tau,
            heads=config.heads,
            with_cross=counter[0] % 2 == 0,
            mlp_ratio=config.mlp_ratio,
            zero_residual=zero_residual,
        )
        counter[0] += 1
        return block

    params = DenoiserParams(
        config=config,
        in_proj=dense(config.image_channels + config.cond_channels, (config.image_channels + config.cond_channels, d)),
        in_bias=Tensor(np.zeros(d), requires_grad=True),
        time_w1=dense(config.temb_dim, (config.temb_dim, d)),
        time_b1=Tensor(np.zeros(d), requires_grad=True),
        time_w2=dense(d, (d, d)),
        time_b2=Tensor(np.zeros(d), requires_grad=True),
        pos_w=dense(config.temb_dim, (config.temb_dim, d)),
        # Zero so the analytic head skip starts inert; see denoise().
        skip_w=Tensor(np.zeros((config.temb_dim, 2)), requires_grad=True),
    )
    counter = [0]
    for stage_size in config.stages[:-1]:
        params.down_blocks.append([make_block(counter) for _ in range(stage_size)])
        params.down_merge.append(dense(4 * d, (4 * d, d)))
    params.bottom_blocks = [make_block(counter) for _ in range(config.stages[-1])]
    for stage_size in reversed(config.stages[:-1]):
        params.up_expand.append(dense(d, (d, 4 * d)))
        params.up_merge.append(dense(2 * d, (2 * d, d)))
        params.up_blocks.append([make_block(counter) for _ in range(stage_size)])
    params.out_norm_gamma = Tensor(np.ones(d), requires_grad=True)
    params.out_norm_beta = Tensor(np.zeros(d), requires_grad=True)
    if zero_residual:
        params.out_proj = Tensor(np.zeros((d, config.image_channels)), requires_grad=True)
    else:
        params.out_proj = dense(d, (d, config.image_channels))
    params.out_bias = Tensor(np.zeros(config.image_channels), requires_grad=True)
    return params


def timestep_embedding(t: np.ndarray | int, dim: int) -> np.ndarray:
    """Sinusoidal features of integer timesteps; (dim,) for a scalar, (B, dim) for a vector."""
    t_arr = np.asarray(t, dtype=np.float64)
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    args = t_arr[..., None] * freqs
    return np.concatenate([np.sin(args), np.cos(args)], axis=-1)


def position_embedding(h: int, w: int, dim: int) -> np.ndarray:
    """Sinusoidal features of grid coordinates, (h, w, dim); rows first."""
    half = dim // 2
    ys = timestep_embedding(np.arange(h), half)
    xs = timestep_embedding(np.arange(w), half)
    out = np.empty((h, w, dim))
    out[..., :half] = ys[:, None, :]
    out[..., half:] = xs[None, :, :]
    return out


def _fold_grid(tokens: Tensor) -> Tensor:
    """(B, h, w, d) -> (B, h/2, w/2, 4d) by stacking each 2x2 cell into channels."""
    b, h, w, d = tokens.shape
    x = reshape(tokens, (b, h // 2, 2, w // 2, 2, d))
    x = transpose(x, (0, 1, 3, 2, 4, 5))
    return reshape(x, (b, h // 2, w // 2, 4 * d))


def _unfold_grid(tokens: Tensor) -> Tensor:
    """(B, h, w, 4d) -> (B, 2h, 2w, d), exact inverse of the fold."""
    b, h, w, d4 = tokens.shape
    d = d4 // 4
    x = reshape(tokens, (b, h, w, 2, 2, d))
    x = transpose(x, (0, 1, 3, 2, 4, 5))
    return reshape(x, (b, 2 * h, 2 * w, d))


def _run_blocks(tokens: Tensor, e: Tensor, blocks: list[InteractionParams], first: int) -> Tensor:
    b, h, w, d = tokens.shape
    stream = reshape(tokens, (b, h * w, d))
    for k, block in enumerate(blocks):
        if (first + k) % 2 == 1:
            stream = flip(interaction_forward(flip(stream, 1), e, block), 1)
        else:
            stream = interaction_forward(stream, e, block)
    return reshape(stream, (b, h, w, d))


def denoise(x_t, t, cond, e, params: DenoiserParams) -> Tensor:
    """Predict the noise component of ``x_t`` given conditioning planes and tokens.

    ``x_t``: (h, w, c_img) or (B, h, w, c_img) noisy image latent.
    ``t``: integer timestep, or one per batch row.
    ``cond``: mask plane and masked-image latent, channel count c_img + 1.
    ``e``: conditioning embedding tokens, (m, d_e) shared or (B, m, d_e).
    Returns the predicted noise with the shape of ``x_t``.

    A scalar ``t`` is embedded once, as one row broadcast over the batch.
    Every other product runs one batch row at a time, so each row of a
    batched call is bitwise equal to the batch-1 call on that row.
    """
    config = params.config
    x_t = as_tensor(x_t)
    cond = as_tensor(cond)
    e = as_tensor(e)
    batched = x_t.ndim == 4
    if not batched:
        if x_t.ndim != 3:
            raise ShapeError(f"denoise: expected (h, w, c) or (B, h, w, c), got {x_t.shape}")
        x_t = reshape(x_t, (1,) + x_t.shape)
        cond = reshape(cond, (1,) + cond.shape)
    if x_t.shape[-1] != config.image_channels:
        raise ShapeError(
            f"denoise: latent channels {x_t.shape[-1]} != factor^2 * channels = {config.image_channels}"
        )
    if cond.shape[-1] != config.cond_channels:
        raise ShapeError(
            f"denoise: conditioning channels {cond.shape[-1]} != expected {config.cond_channels}"
        )
    if cond.shape[:-1] != x_t.shape[:-1]:
        raise ShapeError(f"denoise: conditioning grid {cond.shape[:-1]} != latent grid {x_t.shape[:-1]}")
    b, h, w, _ = x_t.shape
    fold = 1 << (config.levels - 1)
    if h % fold != 0 or w % fold != 0:
        raise ShapeError(f"denoise: grid {h}x{w} not divisible by {fold} across {config.levels} levels")

    # The time-MLP and skip GEMMs are the only products whose row count would
    # be the batch, and BLAS picks its kernel by row count. A scalar t runs
    # them on one row, so every batch row keeps the bits of a batch-1 call.
    temb = timestep_embedding(t, config.temb_dim)
    rows = 1 if temb.ndim == 1 else b
    temb_feats = as_tensor(temb.reshape(-1, config.temb_dim))
    temb_t = add(matmul(swish(add(matmul(temb_feats, params.time_w1), params.time_b1)), params.time_w2), params.time_b2)
    temb_t = reshape(temb_t, (rows, 1, 1, config.d))

    pos = matmul(as_tensor(position_embedding(h, w, config.temb_dim)), params.pos_w)
    tokens = matmul(concat([x_t, cond], axis=-1), params.in_proj)
    tokens = add(add(add(tokens, params.in_bias), temb_t), reshape(pos, (1, h, w, config.d)))

    skips: list[Tensor] = []
    seen = 0
    for lvl, blocks in enumerate(params.down_blocks):
        tokens = _run_blocks(tokens, e, blocks, seen)
        seen += len(blocks)
        skips.append(tokens)
        tokens = matmul(_fold_grid(tokens), params.down_merge[lvl])
    tokens = _run_blocks(tokens, e, params.bottom_blocks, seen)
    seen += len(params.bottom_blocks)
    for lvl in range(len(params.up_blocks)):
        tokens = _unfold_grid(matmul(tokens, params.up_expand[lvl]))
        tokens = matmul(concat([tokens, skips.pop()], axis=-1), params.up_merge[lvl])
        tokens = _run_blocks(tokens, e, params.up_blocks[lvl], seen)
        seen += len(params.up_blocks[lvl])

    tokens = norm_affine(tokens, params.out_norm_gamma, params.out_norm_beta)
    out = add(matmul(tokens, params.out_proj), params.out_bias)

    # Analytic head skip: the noise target is (x_t - sqrt(abar) x0) / sqrt(1 - abar),
    # so hand the head x_t and the masked-image latent with learned per-timestep
    # scalars instead of making the block stack rediscover that arithmetic.
    coef = matmul(temb_feats, params.skip_w)
    a_t = reshape(narrow(coef, 1, 0, 1), (rows, 1, 1, 1))
    b_t = reshape(narrow(coef, 1, 1, 1), (rows, 1, 1, 1))
    out = add(out, add(mul(a_t, x_t), mul(b_t, narrow(cond, -1, 1, config.image_channels))))
    if not batched:
        out = reshape(out, out.shape[1:])
    return out
