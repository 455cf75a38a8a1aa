"""Dense float64 tensors with tape-based reverse-mode differentiation.

The primitive set is deliberately small: the matrix, elementwise, activation,
normalization, reduction, and data-movement operations the attention blocks
and the diffusion denoiser are built from. They are plain functions of
tensors; a ``Tensor`` itself only holds an array and a ``requires_grad`` flag.
Forward values are numpy arrays; an active ``Tape`` records each primitive as
one node with one output, in execution order (which is a topological order by
construction), and a single reverse sweep over that record yields gradients
for every leaf.

Operands that break a primitive's shape contract raise ``ShapeError`` naming
the primitive and the shapes. Broadcasting is checked by numpy itself: ``add``,
``sub``, ``mul`` and ``matmul`` compute their result directly and re-raise
numpy's ``ValueError`` as ``ShapeError``.

Gradient checking is a separate route on purpose: ``check_gradient`` probes a
function with central finite differences and never consults the tape's vjp
rules, so the two implementations can vouch for each other.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "Tape",
    "backward",
    "as_tensor",
    "add",
    "sub",
    "mul",
    "neg",
    "power",
    "matmul",
    "transpose",
    "flip",
    "reshape",
    "broadcast_to",
    "concat",
    "narrow",
    "stack",
    "sigmoid",
    "swish",
    "softmax",
    "layernorm",
    "reduce_sum",
    "reduce_mean",
    "mean_square",
    "GradCheckReport",
    "check_gradient",
]


class ShapeError(ValueError):
    """Operand shapes violate a primitive's contract."""


class Tensor:
    """A dense float64 array, optionally tracked for differentiation.

    ``data`` is owned by the tensor but primitives never mutate their inputs;
    in-place updates (the optimizer) are only legal between tapes.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def numpy(self) -> np.ndarray:
        return self.data

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def as_tensor(value) -> Tensor:
    """Lift arrays and scalars to constant tensors; pass tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


@dataclass(slots=True)
class Node:
    """One recorded primitive: its single output, inputs, and a vjp closure.

    ``vjp`` maps the output cotangent to one cotangent per input (or None
    for inputs that do not need one).
    """

    output: Tensor
    inputs: tuple[Tensor, ...]
    vjp: Callable[[np.ndarray], tuple]
    name: str


_tls = threading.local()


def _tape_stack() -> list["Tape"]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


class Tape:
    """Execution-ordered record of primitives for one forward pass.

    Entering the context makes the tape active for the current thread only;
    a tape must never be shared across concurrent forward passes.
    """

    def __init__(self):
        self.nodes: list[Node] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        popped = _tape_stack().pop()
        assert popped is self, "tapes must unwind in LIFO order"
        return False


def _record(out: Tensor, inputs: tuple[Tensor, ...], vjp, name: str) -> Tensor:
    stack = _tape_stack()
    if stack and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        stack[-1].nodes.append(Node(out, inputs, vjp, name))
    return out


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Reverse sweep over ``tape``: gradients of scalar ``loss`` per leaf.

    Every recorded node is visited exactly once. Leaves (requires_grad
    tensors that are not produced by the tape) that do not reach the loss
    get an explicit zero gradient.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    produced = {id(node.output) for node in tape.nodes}
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        g = grads.pop(id(node.output), None)
        if g is None:
            continue
        partials = node.vjp(g)
        for t, gi in zip(node.inputs, partials):
            if gi is None or not t.requires_grad:
                continue
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + gi
            else:
                grads[key] = gi
    result: dict[Tensor, np.ndarray] = {}
    for node in tape.nodes:
        for t in node.inputs:
            if t.requires_grad and id(t) not in produced and t not in result:
                result[t] = grads.get(id(t), np.zeros_like(t.data))
    if loss.requires_grad and id(loss) not in produced and loss not in result:
        result[loss] = np.ones_like(loss.data)
    return result


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Adjoint of numpy broadcasting: sum ``g`` down to ``shape``."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return np.ascontiguousarray(g.reshape(shape))


def _broadcast_op(op: np.ufunc, a: Tensor, b: Tensor, name: str) -> np.ndarray:
    """``op(a, b)``, with numpy's own broadcast ``ValueError`` re-raised as ``ShapeError``."""
    try:
        return op(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{name}: shapes {a.data.shape} and {b.data.shape} do not broadcast") from None


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(_broadcast_op(np.add, a, b, "add"))

    def vjp(g):
        ga = _unbroadcast(g, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(g, b.data.shape) if b.requires_grad else None
        return ga, gb

    return _record(out, (a, b), vjp, "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(_broadcast_op(np.subtract, a, b, "sub"))

    def vjp(g):
        ga = _unbroadcast(g, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(-g, b.data.shape) if b.requires_grad else None
        return ga, gb

    return _record(out, (a, b), vjp, "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(_broadcast_op(np.multiply, a, b, "mul"))

    def vjp(g):
        ga = _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None
        return ga, gb

    return _record(out, (a, b), vjp, "mul")


def neg(x) -> Tensor:
    x = as_tensor(x)
    out = Tensor(-x.data)
    return _record(out, (x,), lambda g: (-g,), "neg")


def power(x, exponent: float) -> Tensor:
    """Elementwise ``x ** exponent`` for a scalar exponent.

    Fractional exponents require positive inputs (the gate use case applies
    them to sigmoid outputs).
    """
    x = as_tensor(x)
    p = float(exponent)
    out = Tensor(x.data**p)

    def vjp(g):
        return (g * p * x.data ** (p - 1.0),)

    return _record(out, (x,), vjp, "power")


def _swap_axes(arr: np.ndarray) -> np.ndarray:
    return np.swapaxes(arr, -1, -2)


def matmul(a, b) -> Tensor:
    """Stacked matrix product; both operands must be at least 2-d.

    Leading batch dimensions broadcast; their cotangents are summed back.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-d, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree for {a.data.shape} @ {b.data.shape}")
    out = Tensor(_broadcast_op(np.matmul, a, b, "matmul"))

    def vjp(g):
        ga = _unbroadcast(g @ _swap_axes(b.data), a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(_swap_axes(a.data) @ g, b.data.shape) if b.requires_grad else None
        return ga, gb

    return _record(out, (a, b), vjp, "matmul")


def transpose(x, axes: Sequence[int] | None = None) -> Tensor:
    x = as_tensor(x)
    if axes is None:
        axes = tuple(reversed(range(x.data.ndim)))
    else:
        axes = tuple(int(a) for a in axes)
        if sorted(a % x.data.ndim for a in axes) != list(range(x.data.ndim)):
            raise ShapeError(f"transpose: axes {axes} are not a permutation for shape {x.data.shape}")
    out = Tensor(np.transpose(x.data, axes))
    inverse = tuple(np.argsort([a % x.data.ndim for a in axes]))

    def vjp(g):
        return (np.transpose(g, inverse),)

    return _record(out, (x,), vjp, "transpose")


def flip(x, axis: int) -> Tensor:
    """Reverse the entries along one axis."""
    x = as_tensor(x)
    ax = axis % x.data.ndim
    out = Tensor(np.flip(x.data, ax).copy())

    def vjp(g):
        return (np.flip(g, ax),)

    return _record(out, (x,), vjp, "flip")


def reshape(x, shape: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    shape = tuple(int(s) for s in shape)
    try:
        data = x.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {x.data.shape} as {shape}") from None
    out = Tensor(data)

    def vjp(g):
        return (g.reshape(x.data.shape),)

    return _record(out, (x,), vjp, "reshape")


def broadcast_to(x, shape: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    shape = tuple(int(s) for s in shape)
    try:
        data = np.broadcast_to(x.data, shape)
    except ValueError:
        raise ShapeError(f"broadcast_to: cannot broadcast {x.data.shape} to {shape}") from None
    out = Tensor(data.copy())

    def vjp(g):
        return (_unbroadcast(g, x.data.shape),)

    return _record(out, (x,), vjp, "broadcast_to")


def concat(tensors: Sequence, axis: int = -1) -> Tensor:
    parts = [as_tensor(t) for t in tensors]
    if not parts:
        raise ShapeError("concat: need at least one tensor")
    nd = parts[0].data.ndim
    ax = axis % nd
    base = list(parts[0].data.shape)
    for t in parts[1:]:
        other = list(t.data.shape)
        if len(other) != nd or other[:ax] + other[ax + 1 :] != base[:ax] + base[ax + 1 :]:
            raise ShapeError(
                f"concat: shape {t.data.shape} incompatible with {parts[0].data.shape} on axis {axis}"
            )
    out = Tensor(np.concatenate([t.data for t in parts], axis=ax))
    sizes = [t.data.shape[ax] for t in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        pieces = []
        for i, t in enumerate(parts):
            if t.requires_grad:
                sl = [slice(None)] * nd
                sl[ax] = slice(offsets[i], offsets[i + 1])
                pieces.append(np.ascontiguousarray(g[tuple(sl)]))
            else:
                pieces.append(None)
        return tuple(pieces)

    return _record(out, tuple(parts), vjp, "concat")


def narrow(x, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` entries along ``axis``."""
    x = as_tensor(x)
    ax = axis % x.data.ndim
    dim = x.data.shape[ax]
    if start < 0 or length < 1 or start + length > dim:
        raise ShapeError(f"narrow: window [{start}, {start + length}) out of range for axis {axis} of {x.data.shape}")
    sl = [slice(None)] * x.data.ndim
    sl[ax] = slice(start, start + length)
    sl = tuple(sl)
    out = Tensor(x.data[sl])

    def vjp(g):
        full = np.zeros_like(x.data)
        full[sl] = g
        return (full,)

    return _record(out, (x,), vjp, "narrow")


def stack(tensors: Sequence, axis: int = 0) -> Tensor:
    """Stack equal-shape tensors along a fresh axis (concat of reshapes)."""
    parts = [as_tensor(t) for t in tensors]
    if not parts:
        raise ShapeError("stack: need at least one tensor")
    shape = parts[0].data.shape
    for t in parts[1:]:
        if t.data.shape != shape:
            raise ShapeError(f"stack: shape {t.data.shape} differs from {shape}")
    ax = axis % (len(shape) + 1)
    expanded = [reshape(t, shape[:ax] + (1,) + shape[ax:]) for t in parts]
    return concat(expanded, axis=ax)


def _sigmoid_stable(v: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-v))`` for ``v >= 0`` and ``exp(v) / (1 + exp(v))`` below.

    One ``exp(-|v|)`` serves both sides, so no exponent overflows and no
    boolean gather runs. ``minimum(v, -v)`` rather than ``-abs(v)`` keeps the
    sign bit of a NaN input, so the result is bitwise that of the per-side
    formulas evaluated separately. The numerator is ``max(v >= 0, ev)``:
    1 where ``v >= 0`` (there ``ev <= 1``), ``ev`` elsewhere, NaN kept. Both
    buffers are written in place; ``out=`` also keeps a 0-d input an array.
    """
    ev = np.negative(v, out=np.empty_like(v))
    np.minimum(v, ev, out=ev)
    np.exp(ev, out=ev)
    num = np.greater_equal(v, 0.0, out=np.empty_like(v))
    np.maximum(num, ev, out=num)
    ev += 1.0
    num /= ev
    return num


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    y = _sigmoid_stable(x.data)
    out = Tensor(y)

    def vjp(g):
        return (g * y * (1.0 - y),)

    return _record(out, (x,), vjp, "sigmoid")


def swish(x) -> Tensor:
    """x * sigmoid(x) (the beta=1 form)."""
    x = as_tensor(x)
    s = _sigmoid_stable(x.data)
    out = Tensor(x.data * s)

    def vjp(g):
        return (g * (s + x.data * s * (1.0 - s)),)

    return _record(out, (x,), vjp, "swish")


def softmax(x, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def vjp(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _record(out, (x,), vjp, "softmax")


def layernorm(x, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean, unit variance (no affine).

    A constant vector normalizes to zeros: the variance floor ``eps`` keeps
    the division finite.
    """
    x = as_tensor(x)
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = centered * inv
    out = Tensor(y)

    def vjp(g):
        gm = g.mean(axis=-1, keepdims=True)
        gy = (g * y).mean(axis=-1, keepdims=True)
        return ((g - gm - y * gy) * inv,)

    return _record(out, (x,), vjp, "layernorm")


def _restore_axes(g: np.ndarray, axis, keepdims: bool, shape: tuple[int, ...]) -> np.ndarray:
    if not keepdims and axis is not None:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def reduce_sum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    axis_t = tuple(axis) if isinstance(axis, (list, tuple)) else axis
    out = Tensor(x.data.sum(axis=axis_t, keepdims=keepdims))

    def vjp(g):
        return (np.ascontiguousarray(_restore_axes(g, axis_t, keepdims, x.data.shape)),)

    return _record(out, (x,), vjp, "reduce_sum")


def reduce_mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    axis_t = tuple(axis) if isinstance(axis, (list, tuple)) else axis
    data = x.data.mean(axis=axis_t, keepdims=keepdims)
    scale = data.size / x.data.size
    out = Tensor(data)

    def vjp(g):
        return (np.ascontiguousarray(_restore_axes(g * scale, axis_t, keepdims, x.data.shape)),)

    return _record(out, (x,), vjp, "reduce_mean")


def mean_square(x) -> Tensor:
    """Mean of squared entries; the loss-shaped reduction."""
    return reduce_mean(mul(x, x))


@dataclass
class GradCheckReport:
    """Outcome of a central-difference probe of one input tensor."""

    max_abs_err: float
    max_rel_err: float
    worst_index: tuple[int, ...] | None
    probed: int
    failures: list[str]

    def ok(self, rel_tol: float = 1e-5, abs_tol: float = 1e-8) -> bool:
        if self.failures:
            return False
        return self.max_rel_err <= rel_tol or self.max_abs_err <= abs_tol


def check_gradient(
    function: Callable[[Tensor], Tensor],
    point: Tensor,
    epsilon: float = 1e-5,
    max_probes: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare taped gradients of ``function`` at ``point`` against central
    finite differences.

    ``function`` must map one tensor to a scalar tensor and be deterministic.
    When ``max_probes`` is given, a seeded subset of coordinates is probed
    (still two evaluations each); otherwise every coordinate is. A NaN on
    either route is reported as a failure naming the coordinate rather than
    skipped, so kinks and domain edges cannot pass silently.
    """
    base = Tensor(np.array(point.data, dtype=np.float64), requires_grad=True)
    with Tape() as tape:
        value = function(base)
    if value.data.size != 1:
        raise ShapeError(f"check_gradient: function output must be scalar, got {value.data.shape}")
    analytic = backward(tape, value).get(base)
    if analytic is None:
        analytic = np.zeros_like(base.data)

    coords = list(np.ndindex(base.data.shape)) if base.data.shape else [()]
    if max_probes is not None and max_probes < len(coords):
        picker = rng if rng is not None else np.random.default_rng(0)
        chosen = picker.choice(len(coords), size=max_probes, replace=False)
        coords = [coords[i] for i in sorted(chosen)]

    failures: list[str] = []
    max_abs = 0.0
    max_rel = 0.0
    worst: tuple[int, ...] | None = None
    work = np.array(base.data)
    for idx in coords:
        original = work[idx]
        work[idx] = original + epsilon
        f_plus = float(function(Tensor(work)).data)
        work[idx] = original - epsilon
        f_minus = float(function(Tensor(work)).data)
        work[idx] = original
        numeric = (f_plus - f_minus) / (2.0 * epsilon)
        estimate = analytic[idx] if analytic.shape else float(analytic)
        if not np.isfinite(numeric) or not np.isfinite(estimate):
            failures.append(f"coordinate {idx}: analytic={estimate!r} numeric={numeric!r}")
            continue
        abs_err = abs(estimate - numeric)
        rel_err = abs_err / max(abs(estimate), abs(numeric), 1e-12)
        if abs_err > max_abs:
            max_abs = abs_err
        if rel_err > max_rel:
            max_rel = rel_err
            worst = idx
    return GradCheckReport(max_abs, max_rel, worst, len(coords), failures)
