"""Reverse-mode automatic differentiation on numpy arrays.

A ``Tensor`` wraps a float64 ndarray plus a ``requires_grad`` flag.  An op
whose inputs need gradients records itself on the active ``Tape`` when
one exists, and only computes when none does, so forward-only passes
(evaluation, finite differences) keep no graph; the values are the same
either way.  ``backward`` replays the tape in reverse and accumulates
vector-Jacobian products; a grad-enabled loss that is not the output of
a node on that tape (its forward ran outside the tape) is an error.  The
accumulation order is the fixed reverse tape order, which makes
gradients bitwise reproducible for a given forward pass.  Only leaves
(inputs no node on the tape produced) receive ``.grad``; an intermediate
gradient is freed as soon as the vjp of the node that produced it has
consumed it.  The vjps of ``add``, ``matmul``, ``linear`` and
``attention_core``, the ops that meet constant inputs in training,
compute nothing for inputs that need no gradient.  ``linear``,
``attention_core`` and ``cross_entropy`` (the whole softmax loss) are each
one node.

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
    "matmul",
    "linear",
    "attention_core",
    "reshape",
    "broadcast_to",
    "concat",
    "index_rows",
    "group_pool",
    "cross_entropy",
    "layer_norm",
    "relu",
    "gelu",
    "stop_gradient",
    "backward",
]


class NonFiniteError(FloatingPointError, ValueError):
    """A NaN or infinity reached ``op``, in an array of shape ``shape``.

    Kept out of ``__all__``: the gradient-coverage checks (tier-1 and
    perfbench) read that list as the set of differentiable ops.
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
    """Wrap an op result; record it on the active tape, if any, when grads are needed."""
    needs_grad = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=needs_grad)
    if needs_grad:
        tape = active_tape()
        if tape is not None:
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

    def vjp(g):
        return (
            _unbroadcast(g, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g, b.data.shape) if b.requires_grad else None,
        )

    return _record(out, (a, b), vjp)


def _check_matmul(a: Tensor, b: Tensor) -> None:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul requires tensors with at least 2 dimensions")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}")


def _matmul_vjp(g: np.ndarray, a: Tensor, b: Tensor) -> tuple:
    ga = _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape) if a.requires_grad else None
    gb = _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape) if b.requires_grad else None
    return ga, gb


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy batch broadcasting on leading axes."""
    a, b = _as_tensor(a), _as_tensor(b)
    _check_matmul(a, b)
    return _record(a.data @ b.data, (a, b), lambda g: _matmul_vjp(g, a, b))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` as one node; ``b`` broadcasts over the rows."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    _check_matmul(x, w)
    out = x.data @ w.data
    out += b.data

    def vjp(g):
        gb = _unbroadcast(g, b.data.shape) if b.requires_grad else None
        return (*_matmul_vjp(g, x, w), gb)

    return _record(out, (x, w, b), vjp)


def attention_core(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head softmax(q k^T / sqrt(dh)) v as one node.

    [B, Sq, d], [B, Sk, d], [B, Sk, dv] -> [B, Sq, dv].  The projections are
    split into ``heads`` heads of width dh = d / heads (and dv / heads) as
    views, each head attends on its own with scale dh^-0.5, and the heads'
    outputs are joined back along the last axis.  Only the attention weights
    [B, heads, Sq, Sk] are kept for the reverse pass, which uses the softmax
    identity dS = P * (dP - rowsum(dP * P)).
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if (not q.data.ndim == k.data.ndim == v.data.ndim == 3 or q.data.shape[0] != k.data.shape[0]
            or q.data.shape[2] != k.data.shape[2] or k.data.shape[:2] != v.data.shape[:2]):
        raise ValueError(f"attention_core shapes disagree: q {q.data.shape}, k {k.data.shape}, v {v.data.shape}")
    if heads < 1 or q.data.shape[2] % heads or v.data.shape[2] % heads:
        raise ValueError(f"attention_core widths {q.data.shape[2]}, {v.data.shape[2]} not divisible by {heads} heads")
    scale = (q.data.shape[2] // heads) ** -0.5

    def split(x):  # [B, S, heads * w] -> [B, heads, S, w], a view
        return x.reshape(x.shape[0], x.shape[1], heads, -1).transpose(0, 2, 1, 3)

    def merge(x):  # [B, heads, S, w] -> [B, S, heads * w]
        return x.transpose(0, 2, 1, 3).reshape(x.shape[0], x.shape[2], -1)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    p = qh @ kh.swapaxes(-1, -2)
    p *= scale
    if not np.isfinite(p).all():
        raise NonFiniteError("attention_core", p.shape, "score")
    # softmax in place on the score buffer
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = merge(p @ vh)

    def vjp(g):
        g = split(g)
        gv = merge(p.swapaxes(-1, -2) @ g) if v.requires_grad else None
        if not (q.requires_grad or k.requires_grad):
            return None, None, gv
        gs = g @ vh.swapaxes(-1, -2)
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= scale
        gq = merge(gs @ kh) if q.requires_grad else None
        gk = merge((qh.swapaxes(-1, -2) @ gs).swapaxes(-1, -2)) if k.requires_grad else None
        return gq, gk, gv

    return _record(out, (q, k, v), vjp)


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


def _getitem(a: Tensor, key) -> Tensor:
    out = a.data[key]
    if np.isscalar(out) or out.ndim == 0:
        out = np.asarray(out, dtype=np.float64)

    def vjp(g):
        ga = np.zeros_like(a.data)
        ga[key] += g
        return (ga,)

    return _record(out, (a,), vjp)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over rows of logsumexp(logits[i]) - logits[i, labels[i]] as one
    node, [B, K] -> scalar; exp runs on max-shifted rows, so it cannot overflow."""
    labels = np.asarray(labels, dtype=np.int64)
    x = logits.data
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError(f"cross_entropy expects [B, K] logits with B >= 1, got shape {x.shape}")
    b, k = x.shape
    if labels.shape != (b,):
        raise ValueError(f"cross_entropy expects {b} labels, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= k:
        raise IndexError(f"label out of range for {k} classes")
    if not np.isfinite(x).all():
        raise NonFiniteError("cross_entropy", x.shape)
    rows = np.arange(b)
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    s = e.sum(axis=-1, keepdims=True)
    out = (np.squeeze(m + np.log(s), axis=-1) - x[rows, labels]).mean()

    def vjp(g):
        per_row = np.broadcast_to(g / b, (b,)).copy()
        gx = np.zeros_like(x)
        np.add.at(gx, (rows, labels), -per_row)
        return (gx + per_row[:, None] * (e / s),)

    return _record(np.asarray(out, dtype=np.float64), (logits,), vjp)


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
    """Tanh-approximate gelu: 0.5 x (1 + tanh(c (x + 0.044715 x^3))).

    Forward and vjp work in place on their own buffers, in the formula's
    left-to-right operation order.
    """
    x = a.data
    x2 = x * x  # x**3 spelled as repeated products: numpy's pow ufunc is ~60x slower
    t = x2 * 0.044715
    t *= x
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = 0.5 * x
    out *= 1.0 + t

    def vjp(g):
        # g * (0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 * 0.044715 x^2)), in two buffers
        gx = t * t
        np.subtract(1.0, gx, out=gx)
        buf = 0.5 * x
        gx *= buf
        np.multiply(x2, 3.0 * 0.044715, out=buf)
        buf += 1.0
        buf *= _GELU_C
        gx *= buf
        np.add(t, 1.0, out=buf)
        buf *= 0.5
        gx += buf
        gx *= g
        return (gx,)

    return _record(out, (a,), vjp)


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
    """Set ``.grad`` = d(loss)/d(leaf) on every grad-enabled leaf of the tape.

    A leaf is an input that no node on the tape produced; recorded leaves
    the loss does not reach get zeros.  Intermediate tensors get no
    ``.grad``: each node's output gradient is dropped as soon as its vjp
    has read it, so a step holds only the gradients still to be consumed.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    if tape is None:  # not ``tape or ...``: an empty Tape is falsy
        tape = active_tape()
    if tape is None:
        raise RuntimeError("backward requires an active (or explicitly passed) Tape")
    if loss.requires_grad and not any(node.output is loss for node in reversed(tape.nodes)):
        raise RuntimeError(
            "loss is not the output of an op on this tape; "
            "run the forward pass inside `with Tape():`"
        )

    # vjps may return views of their upstream gradient or of each other's
    # results, so a stored gradient is never updated in place
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        g_out = grads.pop(id(node.output), None)
        if g_out is None:
            continue
        contribs = node.vjp(g_out)
        del g_out
        for inp, g in zip(node.inputs, contribs):
            if g is None or not inp.requires_grad:
                continue
            key = id(inp)
            prev = grads.get(key)
            grads[key] = g if prev is None else prev + g

    produced = {id(node.output) for node in tape.nodes}
    for node in tape.nodes:
        for t in node.inputs:
            key = id(t)
            if not t.requires_grad or key in produced:
                continue
            produced.add(key)  # each leaf once
            g = grads.pop(key, None)
            t.grad = np.array(g, dtype=np.float64, copy=True) if g is not None else np.zeros_like(t.data)
