"""Reverse-mode automatic differentiation on numpy arrays.

A ``Tensor`` wraps a float64 ndarray plus a ``requires_grad`` flag.  Ops
executed while a ``Tape`` is active record themselves (when any input
needs gradients) so ``backward`` can replay the tape in reverse and
accumulate vector-Jacobian products.  The accumulation order is the
fixed reverse tape order, which makes gradients bitwise reproducible
for a given forward pass.

``stop_gradient`` is the one deliberately odd primitive: forward is the
identity (it shares the input's storage) while the reverse pass sends
exactly zero into the detached subgraph, because the op is simply never
recorded.  Cutting the edge structurally, rather than multiplying by
zero, is what lets detached and frozen-to-constant graphs produce
identical gradient bytes.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "active_tape",
    "tensor",
    "constant",
    "add",
    "sub",
    "mul",
    "matmul",
    "transpose",
    "reshape",
    "broadcast_to",
    "concat",
    "index_rows",
    "group_pool",
    "select_columns",
    "sum_axis",
    "mean_axis",
    "softmax",
    "logsumexp",
    "layer_norm",
    "relu",
    "gelu",
    "activation",
    "stop_gradient",
    "backward",
]


class NonFiniteError(FloatingPointError, ValueError):
    """A NaN or infinity reached ``op``, in an array of shape ``shape``.

    Kept out of ``__all__``: perfbench's gradient-coverage check reads that
    list as the set of differentiable ops.
    """

    def __init__(self, op: str, shape, what: str = "input"):
        self.op = op
        self.shape = tuple(shape)
        super().__init__(f"{op}: non-finite {what} of shape {self.shape}")


class Tensor:
    """Double-precision array with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        grad = ", grad" if self.grad is not None else ""
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}{grad})"

    # arithmetic sugar; all defer to the module-level ops below
    def __add__(self, other):
        return add(self, _as_tensor(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return _getitem(self, key)


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class _Node:
    """One recorded primitive: output, inputs, and a vector-Jacobian hook."""

    __slots__ = ("output", "inputs", "vjp")

    def __init__(self, output: Tensor, inputs: Sequence[Tensor], vjp: Callable):
        self.output = output
        self.inputs = tuple(inputs)
        self.vjp = vjp  # g_out: ndarray -> tuple of (ndarray | None) per input


_STATE = threading.local()


def _tape_stack() -> list:
    stack = getattr(_STATE, "stack", None)
    if stack is None:
        stack = []
        _STATE.stack = stack
    return stack


def active_tape() -> Optional["Tape"]:
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered op record for one forward pass; use as a context manager."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _tape_stack().pop()
        if popped is not self:
            raise RuntimeError("tape stack corrupted: exited tapes out of order")

    def __len__(self) -> int:
        return len(self.nodes)


def _record(out_data: np.ndarray, inputs: Sequence[Tensor], vjp: Callable) -> Tensor:
    """Wrap an op result; record it on the active tape when grads are needed."""
    needs_grad = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=needs_grad)
    if needs_grad:
        tape = active_tape()
        if tape is None:
            raise RuntimeError(
                "operation on a grad-enabled tensor outside any active Tape; "
                "wrap the forward pass in `with Tape():`"
            )
        tape.nodes.append(_Node(out, inputs, vjp))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to ``shape`` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data
    return _record(out, (a, b), lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data - b.data
    return _record(out, (a, b), lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data
    return _record(
        out,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)),
    )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy batch broadcasting on leading axes."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul requires tensors with at least 2 dimensions")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}")
    out = a.data @ b.data

    def vjp(g):
        ga = _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape)
        gb = _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape)
        return ga, gb

    return _record(out, (a, b), vjp)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(int(ax) for ax in axes)
    inverse = tuple(int(i) for i in np.argsort(axes))
    return _record(np.transpose(a.data, axes), (a,), lambda g: (np.transpose(g, inverse),))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    old = a.data.shape
    return _record(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def broadcast_to(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    out = np.broadcast_to(a.data, shape).copy()
    return _record(out, (a,), lambda g: (_unbroadcast(g, a.data.shape),))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("concat of an empty sequence")
    axis = int(axis)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        pieces = []
        for i in range(len(sizes)):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            pieces.append(g[tuple(idx)])
        return tuple(pieces)

    return _record(out, tensors, vjp)


def index_rows(a: Tensor, indices) -> Tensor:
    """Gather rows along axis 0 by integer index (duplicates allowed)."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError("index_rows expects a 1-D integer index array")
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise IndexError(f"row index out of range for axis of length {a.data.shape[0]}")
    out = a.data[idx]

    def vjp(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return (ga,)

    return _record(out, (a,), vjp)


def group_pool(a: Tensor, members, mean: bool = True) -> Tensor:
    """Pool each group's rows: out[g] reduces ``a[members[g]]`` over every
    axis but the last, by a mean (or a sum with ``mean=False``).

    [R, ..., d] -> [G, d]; member lists must be non-empty and disjoint.
    Each group is reduced as one contiguous slice of the gathered rows, so
    its value is bit-identical to reducing ``a[members[g]]`` on its own.
    """
    parts = [np.asarray(m, dtype=np.int64) for m in members]
    if a.data.ndim < 2:
        raise ValueError(f"group_pool expects [rows, ..., d], got shape {a.data.shape}")
    if not parts or any(p.ndim != 1 or p.size == 0 for p in parts):
        raise ValueError("group_pool needs one non-empty 1-D member list per group")
    order = np.concatenate(parts)
    if order.min() < 0 or order.max() >= a.data.shape[0]:
        raise IndexError(f"member index out of range for axis of length {a.data.shape[0]}")
    if np.bincount(order).max() > 1:
        raise ValueError("group_pool member lists overlap")
    sizes = np.array([p.size for p in parts])
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    # members already in row order (one group, or groups sorted): no gather
    in_order = np.array_equal(order, np.arange(a.data.shape[0]))
    rows = np.ascontiguousarray(a.data) if in_order else a.data[order]
    axes = tuple(range(a.data.ndim - 1))
    reduce = np.mean if mean else np.sum
    out = np.stack([reduce(rows[s:e], axis=axes) for s, e in zip(bounds[:-1], bounds[1:])])
    # elements behind each pooled value: member rows times the inner positions
    count = (sizes * (a.data[0].size // a.data.shape[-1]))[:, None]

    def vjp(g):
        per_row = np.repeat(g / count if mean else g, sizes, axis=0)
        ga = np.zeros_like(a.data)
        ga[order] = per_row.reshape((order.size,) + (1,) * (len(axes) - 1) + per_row.shape[-1:])
        return (ga,)

    return _record(out, (a,), vjp)


def select_columns(a: Tensor, indices) -> Tensor:
    """Pick one column per row: out[i] = a[i, indices[i]]."""
    idx = np.asarray(indices, dtype=np.int64)
    if a.data.ndim != 2 or idx.shape != (a.data.shape[0],):
        raise ValueError("select_columns expects a [rows, cols] tensor and one index per row")
    rows = np.arange(a.data.shape[0])
    out = a.data[rows, idx]

    def vjp(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (rows, idx), g)
        return (ga,)

    return _record(out, (a,), vjp)


def _getitem(a: Tensor, key) -> Tensor:
    out = a.data[key]
    if np.isscalar(out) or out.ndim == 0:
        out = np.asarray(out, dtype=np.float64)

    def vjp(g):
        ga = np.zeros_like(a.data)
        ga[key] += g
        return (ga,)

    return _record(out, (a,), vjp)


def _normalize_axes(axis, ndim: int):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, (int, np.integer)):
        axis = (int(axis),)
    axes = tuple(sorted(ax % ndim for ax in axis))
    if len(set(axes)) != len(axes):
        raise ValueError(f"duplicate reduction axes {axis}")
    return axes


def sum_axis(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _normalize_axes(axis, a.data.ndim)
    out = a.data.sum(axis=axes, keepdims=keepdims)

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _record(np.asarray(out, dtype=np.float64), (a,), vjp)


def mean_axis(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _normalize_axes(axis, a.data.ndim)
    count = int(np.prod([a.data.shape[ax] for ax in axes])) if axes else 1
    if count == 0:
        raise ValueError("mean over an empty reduction (size-0 axis)")
    out = a.data.mean(axis=axes, keepdims=keepdims)

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g / count, a.data.shape).copy(),)

    return _record(np.asarray(out, dtype=np.float64), (a,), vjp)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    if not np.isfinite(a.data).all():
        raise NonFiniteError("softmax", a.data.shape)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _record(out, (a,), vjp)


def logsumexp(a: Tensor, axis: int = -1) -> Tensor:
    """Stable log(sum(exp(x))) over one axis; the softmax-free route to CE."""
    if not np.isfinite(a.data).all():
        raise NonFiniteError("logsumexp", a.data.shape)
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    out = np.squeeze(m + np.log(s), axis=axis)
    soft = e / s

    def vjp(g):
        return (np.expand_dims(g, axis) * soft,)

    return _record(out, (a,), vjp)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then affine."""
    if eps <= 0:
        raise ValueError(f"layer_norm eps must be > 0, got {eps}")
    d = a.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ValueError("layer_norm gain/bias must match the last dimension")
    mu = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = gain.data * xhat + bias.data

    def vjp(g):
        lead = tuple(range(g.ndim - 1))
        ggain = (g * xhat).sum(axis=lead)
        gbias = g.sum(axis=lead)
        gx_hat = g * gain.data
        # d/dx of (x - mu) * inv with mu, var both functions of x
        gx = inv * (
            gx_hat
            - gx_hat.mean(axis=-1, keepdims=True)
            - xhat * (gx_hat * xhat).mean(axis=-1, keepdims=True)
        )
        return gx, ggain, gbias

    return _record(out, (a, gain, bias), vjp)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _record(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(a: Tensor) -> Tensor:
    """Tanh-approximate gelu: 0.5 x (1 + tanh(c (x + 0.044715 x^3)))."""
    x = a.data
    x2 = x * x  # x**3 spelled as repeated products: numpy's pow ufunc is ~60x slower
    inner = _GELU_C * (x + 0.044715 * x2 * x)
    t = np.tanh(inner)
    out = 0.5 * x * (1.0 + t)

    def vjp(g):
        dinner = _GELU_C * (1.0 + 3.0 * 0.044715 * x2)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner),)

    return _record(out, (a,), vjp)


def activation(a: Tensor, kind: str) -> Tensor:
    if kind == "gelu":
        return gelu(a)
    if kind == "relu":
        return relu(a)
    raise ValueError(f"unknown activation kind {kind!r} (expected 'gelu' or 'relu')")


def stop_gradient(a: Tensor) -> Tensor:
    """Forward identity that the reverse pass cannot cross.

    The result shares the input's storage byte-for-byte and does not
    require gradients, so downstream gradients of the detached branch
    are structurally zero rather than numerically small.  A marker node
    is still recorded so ``backward`` zero-fills ``a.grad`` when the
    detached branch was the only consumer.
    """
    out = Tensor.__new__(Tensor)
    out.data = a.data
    out.requires_grad = False
    out.grad = None
    if a.requires_grad:
        tape = active_tape()
        if tape is not None:
            # output never requires grad, so the vjp below is unreachable;
            # the node only exists for the zero-fill bookkeeping
            tape.nodes.append(_Node(out, (a,), lambda g: (None,)))
    return out


def backward(loss: Tensor, tape: Optional[Tape] = None) -> None:
    """Accumulate d(loss)/d(tensor) into ``.grad`` for every grad-enabled
    tensor touched by the tape; untouched-but-recorded tensors get zeros."""
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    tape = tape or active_tape()
    if tape is None:
        raise RuntimeError("backward requires an active (or explicitly passed) Tape")

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        g_out = grads.get(id(node.output))
        if g_out is None:
            continue
        contribs = node.vjp(g_out)
        for inp, g in zip(node.inputs, contribs):
            if g is None or not inp.requires_grad:
                continue
            key = id(inp)
            if key in grads:
                grads[key] += g
            else:
                grads[key] = np.array(g, dtype=np.float64, copy=True)

    seen: set[int] = set()
    for node in tape.nodes:
        for t in (*node.inputs, node.output):
            if not t.requires_grad or id(t) in seen:
                continue
            seen.add(id(t))
            g = grads.get(id(t))
            t.grad = g if g is not None else np.zeros_like(t.data)
    if loss.requires_grad and id(loss) not in seen:
        loss.grad = grads[id(loss)]
