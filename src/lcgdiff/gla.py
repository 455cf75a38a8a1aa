"""Gated linear attention: projections, gated-state recurrence, and an oracle.

The sequence mixer keeps a ``d_k x d_v`` state that decays feature-wise and
accumulates key/value outer products:

    G_t = alpha_t^T beta_t            (outer product of two gate rows)
    S_t = G_t (*) S_{t-1} + K_t^T V_t
    O_t = Q_t S_t

with gates ``alpha = sigmoid(X W_a + b_a)^(1/tau)`` (likewise ``beta``), so
every entry lies in (0, 1) and ``tau`` tempers how fast memory fades. The
block output re-gates the normalized read with a swish gate and projects
back to model width: ``L_hat_t = (R_t (*) layernorm(O_t)) W_o``.

``gla_attend`` runs the recurrence from a zero state on numpy arrays and
records the whole scan as one tape node, with the reads O as its one output;
the node keeps the L+1 states. The final state S_L is returned beside O as a
constant: no gradient flows through it. The vjp is a reverse scan, built from
products and sums only, so gates of exactly 0 stay exact. dS starts at zero,
and for t = L-1 down to 0:

    dS += Q_t^T g_t                      (g_t: cotangent of O_t)
    dQ_t = g_t S_t^T,  dK_t = V_t dS^T,  dV_t = K_t dS
    dG = dS (*) S_{t-1},  dalpha_t = dG beta_t^T,  dbeta_t = alpha_t dG
    dS = dS (*) G_t

Each product is formed with the same numpy call shapes the per-token tape
composition used, so values and gradients are bitwise those of that
composition. Multiple heads are a reshaped lead axis, so a mixer makes one
call whatever ``heads`` is.

``gla_oracle`` recomputes O from the fully unrolled sum with explicit gate
products. It shares no code with the recurrence; the two routes anchor each
other and the equivalence is enforced by tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    ShapeError,
    Tensor,
    _record,
    add,
    as_tensor,
    layernorm,
    matmul,
    mul,
    power,
    reshape,
    sigmoid,
    swish,
    transpose,
)

__all__ = [
    "GlaParams",
    "init_gla_params",
    "gla_project",
    "gla_attend",
    "gla_apply",
    "gla_oracle",
]


@dataclass
class GlaParams:
    """Projection and gate weights for one gated-linear-attention mixer."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_alpha: Tensor
    b_alpha: Tensor
    w_beta: Tensor
    b_beta: Tensor
    w_r: Tensor
    b_r: Tensor
    w_o: Tensor
    tau: float = 16.0
    heads: int = 1

    @property
    def d(self) -> int:
        return self.w_q.shape[0]

    @property
    def dk(self) -> int:
        return self.w_q.shape[1]

    @property
    def dv(self) -> int:
        return self.w_v.shape[1]

    def named_params(self) -> dict[str, Tensor]:
        return {
            "w_q": self.w_q,
            "w_k": self.w_k,
            "w_v": self.w_v,
            "w_alpha": self.w_alpha,
            "b_alpha": self.b_alpha,
            "w_beta": self.w_beta,
            "b_beta": self.b_beta,
            "w_r": self.w_r,
            "b_r": self.b_r,
            "w_o": self.w_o,
        }


def init_gla_params(
    d: int,
    dk: int,
    dv: int,
    rng: np.random.Generator,
    tau: float = 16.0,
    heads: int = 1,
    zero_residual: bool = True,
) -> GlaParams:
    """Fresh mixer weights: fan-in scaled Gaussians, zero biases.

    ``zero_residual`` starts the output projection at zero so a residual
    wrapper is the identity at initialization.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if heads < 1 or dk % heads or dv % heads:
        raise ShapeError(f"heads={heads} must divide dk={dk} and dv={dv}")

    def dense(fan_in: int, shape: tuple[int, ...]) -> Tensor:
        return Tensor(rng.standard_normal(shape) / np.sqrt(fan_in), requires_grad=True)

    w_o = Tensor(np.zeros((dv, d)), requires_grad=True) if zero_residual else dense(dv, (dv, d))
    return GlaParams(
        w_q=dense(d, (d, dk)),
        w_k=dense(d, (d, dk)),
        w_v=dense(d, (d, dv)),
        w_alpha=dense(d, (d, dk)),
        b_alpha=Tensor(np.zeros(dk), requires_grad=True),
        w_beta=dense(d, (d, dv)),
        b_beta=Tensor(np.zeros(dv), requires_grad=True),
        w_r=dense(d, (d, dv)),
        b_r=Tensor(np.zeros(dv), requires_grad=True),
        w_o=w_o,
        tau=float(tau),
        heads=int(heads),
    )


def gla_project(l_in, params: GlaParams):
    """Token projections: queries, keys, values, both gates, the output gate.

    Gates are sigmoids tempered by ``1/tau``; the output gate R is a swish.
    """
    x = as_tensor(l_in)
    if x.shape[-1] != params.d:
        raise ShapeError(f"gla_project: input width {x.shape[-1]} != parameter width {params.d}")
    q = matmul(x, params.w_q)
    k = matmul(x, params.w_k)
    v = matmul(x, params.w_v)
    alpha = power(sigmoid(add(matmul(x, params.w_alpha), params.b_alpha)), 1.0 / params.tau)
    beta = power(sigmoid(add(matmul(x, params.w_beta), params.b_beta)), 1.0 / params.tau)
    r_gate = swish(add(matmul(x, params.w_r), params.b_r))
    return q, k, v, alpha, beta, r_gate


def _validate_attend(q: Tensor, k: Tensor, v: Tensor, alpha: Tensor, beta: Tensor) -> None:
    if not (q.shape[:-1] == k.shape[:-1] == v.shape[:-1] == alpha.shape[:-1] == beta.shape[:-1]):
        raise ShapeError(
            "gla_attend: lead axes or sequence lengths disagree: "
            f"Q{q.shape} K{k.shape} V{v.shape} alpha{alpha.shape} beta{beta.shape}"
        )
    if not (q.shape[-1] == k.shape[-1] == alpha.shape[-1]):
        raise ShapeError(f"gla_attend: key widths disagree: Q{q.shape} K{k.shape} alpha{alpha.shape}")
    if not (v.shape[-1] == beta.shape[-1]):
        raise ShapeError(f"gla_attend: value widths disagree: V{v.shape} beta{beta.shape}")


def gla_attend(q, k, v, alpha, beta) -> tuple[Tensor, Tensor]:
    """Run the gated recurrence from a zero state; returns the per-token reads O
    and the final state.

    Leading batch axes, shared by all inputs, are carried through untouched.
    The reads are one tape node whose vjp is the reverse scan described in the
    module docstring; the final state is a constant tensor.
    """
    q, k, v, alpha, beta = (as_tensor(t) for t in (q, k, v, alpha, beta))
    _validate_attend(q, k, v, alpha, beta)
    lead, length = q.shape[:-2], q.shape[-2]
    state_shape = lead + (q.shape[-1], v.shape[-1])
    q_a, k_a, v_a, a_a, b_a = (t.data for t in (q, k, v, alpha, beta))

    # Gates and updates are outer products of one row each; states[..., t, :, :]
    # is S_{t-1}, so states[..., 0, :, :] is the zero starting state.
    gates = a_a[..., :, None] * b_a[..., None, :]
    updates = k_a[..., :, None] * v_a[..., None, :]
    states = np.empty(lead + (length + 1,) + state_shape[-2:])
    states[..., 0, :, :] = 0.0
    for t in range(length):
        s = states[..., t + 1, :, :]
        np.multiply(gates[..., t, :, :], states[..., t, :, :], out=s)
        s += updates[..., t, :, :]
    reads = Tensor((q_a[..., :, None, :] @ states[..., 1:, :, :])[..., 0, :])
    final = Tensor(states[..., length, :, :].copy())

    def vjp(g):
        g = np.ascontiguousarray(g)
        carry = np.zeros(state_shape)
        # d_states[..., t, :, :] is the cotangent of S_t: the read q_t^T g_t
        # plus what flows back from S_{t+1} through its gate.
        reads_back = q_a[..., :, :, None] * g[..., :, None, :]
        d_states = np.empty(lead + (length,) + state_shape[-2:])
        for t in range(length - 1, -1, -1):
            ds = d_states[..., t, :, :]
            np.add(carry, reads_back[..., t, :, :], out=ds)
            carry = ds * gates[..., t, :, :]
        d_gates = d_states * states[..., :-1, :, :]
        # Every product keeps the shapes and unit-stride rows (hence the
        # contiguous g) the per-token composition gave numpy: a row times a
        # matrix, or a matrix times a column. BLAS then sums each one in the
        # same order, and the gradients match that composition bit for bit.
        return (
            (g[..., :, None, :] @ np.swapaxes(states[..., 1:, :, :], -1, -2))[..., 0, :],
            (d_states @ v_a[..., :, :, None])[..., 0],
            (k_a[..., :, None, :] @ d_states)[..., 0, :],
            (d_gates @ b_a[..., :, :, None])[..., 0],
            (a_a[..., :, None, :] @ d_gates)[..., 0, :],
        )

    _record(reads, (q, k, v, alpha, beta), vjp, "gla_attend")
    return reads, final


def _split_heads(x: Tensor, heads: int) -> Tensor:
    """(..., L, heads * w) -> (..., heads, L, w): heads become a lead axis."""
    if heads == 1:
        return x
    *lead, length, width = x.shape
    n = len(lead)
    x = reshape(x, (*lead, length, heads, width // heads))
    return transpose(x, tuple(range(n)) + (n + 1, n, n + 2))


def _merge_heads(x: Tensor, heads: int) -> Tensor:
    """Inverse of ``_split_heads``: (..., heads, L, w) -> (..., L, heads * w)."""
    if heads == 1:
        return x
    *lead, _, length, width = x.shape
    n = len(lead)
    x = transpose(x, tuple(range(n)) + (n + 1, n, n + 2))
    return reshape(x, (*lead, length, heads * width))


def gla_apply(l_in, params: GlaParams) -> Tensor:
    """The standalone mixer: project ``l_in``, scan it, then ``(R (*) layernorm(O)) W_o``.

    Every head runs in the same ``gla_attend`` call; the pre-output-gate reads
    O are what ``gla_oracle`` reproduces.
    """
    q, k, v, alpha, beta, r_gate = gla_project(l_in, params)
    heads = params.heads
    o, _ = gla_attend(*(_split_heads(t, heads) for t in (q, k, v, alpha, beta)))
    return matmul(mul(r_gate, layernorm(_merge_heads(o, heads))), params.w_o)


def gla_oracle(q, k, v, alpha, beta) -> Tensor:
    """Brute-force reads from the unrolled recurrence (2-d inputs only).

    For every t the state is rebuilt as an explicit sum over j <= t with the
    elementwise gate product accumulated term by term:

        O_t = Q_t sum_j (prod_{m=j+1..t} G_m) (*) K_j^T V_j

    Quadratic in sequence length by design; intended for small instances.
    """
    arrays = []
    for name, t in zip("QKVab", (q, k, v, alpha, beta)):
        arr = np.asarray(t.data if isinstance(t, Tensor) else t, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"gla_oracle: {name} must be 2-d, got shape {arr.shape}")
        arrays.append(arr)
    q_a, k_a, v_a, alpha_a, beta_a = arrays
    _validate_attend(*(Tensor(a) for a in arrays))
    length, dk = q_a.shape
    dv = v_a.shape[1]
    out = np.zeros((length, dv))
    for t in range(length):
        acc = np.zeros((dk, dv))
        weight = np.ones((dk, dv))
        for j in range(t, -1, -1):
            if j < t:
                weight = weight * np.outer(alpha_a[j + 1], beta_a[j + 1])
            acc = acc + weight * np.outer(k_a[j], v_a[j])
        out[t] = q_a[t] @ acc
    return Tensor(out)
