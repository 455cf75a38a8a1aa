"""Interaction blocks: gated-linear self-decoding, category bias, MLP.

A block transforms a token stream in three residual stages:

    H  = L_in + mixer(norm1(L_in))            self-decoding
    H' = H + mean(E) W_v W_o                  category bias from embeddings
    out = H' + mlp(norm3(H'))                 position-wise MLP

The middle stage injects the conditioning embedding tokens E as one row per
batch item, added to every token of the stream. It does not read the
stream: attention over a single category token puts all its weight on that
token, so the bias is what such a stage computes. Blocks built without the
cross stage skip it and keep the other two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gla import GlaParams, gla_apply, init_gla_params
from .tensor import (
    ShapeError,
    Tensor,
    add,
    as_tensor,
    layernorm,
    matmul,
    mul,
    reduce_mean,
    swish,
)

__all__ = [
    "InteractionParams",
    "init_interaction_params",
    "norm_affine",
    "self_decode",
    "category_bias",
    "cross_decode",
    "interaction_forward",
]


@dataclass
class InteractionParams:
    """Weights for one interaction block.

    ``cross_*`` are None for blocks built without the cross stage.
    """

    gla: GlaParams
    norm1_gamma: Tensor
    norm1_beta: Tensor
    norm3_gamma: Tensor
    norm3_beta: Tensor
    cross_v: Tensor | None
    cross_o: Tensor | None
    mlp_in: Tensor
    mlp_bias: Tensor
    mlp_out: Tensor

    @property
    def has_cross(self) -> bool:
        return self.cross_v is not None

    @property
    def d(self) -> int:
        return self.gla.d

    def named_params(self) -> dict[str, Tensor]:
        out = {f"gla.{k}": v for k, v in self.gla.named_params().items()}
        out["norm1.gamma"] = self.norm1_gamma
        out["norm1.beta"] = self.norm1_beta
        if self.has_cross:
            out["cross.v"] = self.cross_v
            out["cross.o"] = self.cross_o
        out["norm3.gamma"] = self.norm3_gamma
        out["norm3.beta"] = self.norm3_beta
        out["mlp.in"] = self.mlp_in
        out["mlp.bias"] = self.mlp_bias
        out["mlp.out"] = self.mlp_out
        return out


def init_interaction_params(
    d: int,
    dk: int,
    dv: int,
    d_e: int,
    rng: np.random.Generator,
    tau: float = 16.0,
    heads: int = 1,
    with_cross: bool = True,
    mlp_ratio: int = 4,
    zero_residual: bool = True,
) -> InteractionParams:
    def dense(fan_in: int, shape: tuple[int, ...]) -> Tensor:
        return Tensor(rng.standard_normal(shape) / np.sqrt(fan_in), requires_grad=True)

    def maybe_zero(fan_in: int, shape: tuple[int, ...]) -> Tensor:
        if zero_residual:
            return Tensor(np.zeros(shape), requires_grad=True)
        return dense(fan_in, shape)

    hidden = mlp_ratio * d
    return InteractionParams(
        gla=init_gla_params(d, dk, dv, rng, tau=tau, heads=heads, zero_residual=zero_residual),
        norm1_gamma=Tensor(np.ones(d), requires_grad=True),
        norm1_beta=Tensor(np.zeros(d), requires_grad=True),
        norm3_gamma=Tensor(np.ones(d), requires_grad=True),
        norm3_beta=Tensor(np.zeros(d), requires_grad=True),
        cross_v=dense(d_e, (d_e, d)) if with_cross else None,
        cross_o=maybe_zero(d, (d, d)) if with_cross else None,
        mlp_in=dense(d, (d, hidden)),
        mlp_bias=Tensor(np.zeros(hidden), requires_grad=True),
        mlp_out=maybe_zero(hidden, (hidden, d)),
    )


def norm_affine(x, gamma: Tensor, beta: Tensor) -> Tensor:
    """Layer normalization followed by a learned elementwise affine."""
    return add(mul(layernorm(x), gamma), beta)


def self_decode(l_in, params: InteractionParams) -> Tensor:
    """Residual gated-linear mixing: L_in + mixer(norm1(L_in))."""
    x = as_tensor(l_in)
    if x.shape[-1] != params.d:
        raise ShapeError(f"self_decode: stream width {x.shape[-1]} != block width {params.d}")
    return add(x, gla_apply(norm_affine(x, params.norm1_gamma, params.norm1_beta), params.gla))


def _validate_embeddings(e: Tensor, params: InteractionParams) -> None:
    if e.ndim < 2 or e.shape[-2] < 1:
        raise ShapeError(
            f"cross_decode: need at least one embedding token, got shape {e.shape}; "
            "pass the null-category embedding rather than an empty token set"
        )
    if e.shape[-1] != params.cross_v.shape[0]:
        raise ShapeError(
            f"cross_decode: embedding width {e.shape[-1]} != value projection input {params.cross_v.shape[0]}"
        )


def category_bias(e, params: InteractionParams) -> Tensor:
    """The embedding tokens' mean through the value and output projections.

    (m, d_e) gives one (1, d) row, (B, m, d_e) one row per batch item; at
    one token the mean is an exact copy of it.
    """
    return matmul(matmul(reduce_mean(e, axis=-2, keepdims=True), params.cross_v), params.cross_o)


def _mlp_stage(h, params: InteractionParams) -> Tensor:
    branch = norm_affine(h, params.norm3_gamma, params.norm3_beta)
    branch = matmul(swish(add(matmul(branch, params.mlp_in), params.mlp_bias)), params.mlp_out)
    return add(h, branch)


def cross_decode(h, e, params: InteractionParams) -> Tensor:
    """Add the category bias of the embedding tokens, then apply the MLP stage."""
    h = as_tensor(h)
    if not params.has_cross:
        raise ShapeError("cross_decode: this block was built without a cross stage")
    e = as_tensor(e)
    _validate_embeddings(e, params)
    return _mlp_stage(add(h, category_bias(e, params)), params)


def interaction_forward(l_in, e, params: InteractionParams) -> Tensor:
    """One full block: self-decode, then cross-decode (or the MLP alone)."""
    h = self_decode(l_in, params)
    if params.has_cross:
        return cross_decode(h, e, params)
    return _mlp_stage(h, params)
