"""Reverse-mode automatic differentiation on numpy arrays.

A ``Tensor`` wraps a float32 or float64 ndarray plus a ``requires_grad``
flag; float32 data stays float32 and anything else becomes float64
(``as_float_array``).  Every op takes ``Tensor`` operands; an array is
wrapped by ``tensor`` or ``constant`` first.  Every op computes in its
inputs' dtype and every vjp returns each input's gradient in that input's
dtype, so a graph built from float32 parameters runs in float32 end to
end.  An op whose inputs need gradients records itself on the active
``Tape`` when one exists, and only computes when none does, so
forward-only passes (evaluation, finite differences) keep no graph; the
values are the same either way.
``backward`` replays the tape in reverse and accumulates vector-Jacobian
products; a grad-enabled loss that is not the output of a node on that
tape (its forward ran outside the tape) is an error.  The accumulation
order is the fixed reverse tape order, which makes
gradients bitwise reproducible for a given forward pass.  Only leaves
(inputs no node on the tape produced) that the loss reaches receive
``.grad``; an intermediate gradient is freed as soon as the vjp of the
node that produced it has consumed it.  The vjps of ``add``, ``linear``,
``norm_linear`` and ``attention_core``, the ops that meet constant inputs
in training, compute nothing for inputs that need no gradient.  These ops
are one node each: ``linear`` (x @ w, plus a bias b when one is given),
``norm_linear`` (a layer norm's gain and shift folded into the affine map
that reads the normalized rows, so the affine costs products on [k, n]
matrices, not passes over the rows), ``layer_norm`` (the normalization
alone, with no affine), ``gelu`` (whose tape keeps only its gate),
``attention_core`` and ``cross_entropy`` (the whole softmax loss).

``add`` broadcasts by one rule: equal shapes, or a right operand of the
left one's trailing shape (bias rows, ``pos_embed``), whose gradient is
summed over the leading axes.  The right operand of ``linear`` and
``norm_linear`` is a [k, n] matrix and their bias, if any, an [n] vector;
the batched products belong to ``attention_core``.  A row that several
images share (the CLS token, each group's context token) reaches each of
them through an ``index_rows`` gather, which keeps its index's shape and
whose vjp adds their gradients back into that row; there is no broadcast
op.

Short-axis reductions run as BLAS products, one call over every row, with
each ones, ``1/d`` or weight operand built in the input's dtype: the sums
over leading axes in ``_unbroadcast`` (every bias gradient, and the row
sum from which ``norm_linear`` derives its shift's and bias's gradients)
are a GEMV against ones; every weight gradient of ``linear`` and
``norm_linear`` is one 2-D GEMM over all leading rows of the input;
``layer_norm``'s row means, forward and in the vjp, are GEMVs against
``1/d``; the softmax row sum of ``attention_core`` and its vjp's
rowsum(dP * P) are GEMVs against ones.  They equal numpy's reductions to
rounding, not bitwise: BLAS sums in its own order.

Hot arrays are laid out for the kernel that reads them.  The right operand
of a batched product is unit-stride along its last axis: a transposed view
there (the transposed right operand in the input gradient, the keys in the scores, the
values in the attention vjp) is copied contiguous first, since numpy runs
its per-matrix loop on a slow path for any other stride.  A left operand
of one row per matrix ([B, 1, k], the CLS-only last layer) runs as one
2-D product over its [B, k] view, not as B tiny products.  A maximum over
short rows (the softmax row max) runs along the long axis of a transposed
copy instead of row by row; a max is exact, so that one is bitwise.

``stop_gradient`` is not an op: it returns a constant that shares its
input's storage and records nothing, so the reverse pass never enters the
detached subgraph, and a leaf read only through it gets no ``.grad``, as
no leaf the loss does not reach gets one.  Cutting the edge structurally,
rather than multiplying by zero, is what lets detached and
frozen-to-constant graphs produce identical gradient bytes.
"""

from __future__ import annotations

import math
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
    "linear",
    "norm_linear",
    "attention_core",
    "reshape",
    "concat",
    "index_rows",
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


def as_float_array(data) -> np.ndarray:
    """``data`` as an ndarray: float32 stays float32, anything else becomes
    float64.  Kept out of ``__all__`` (not an op), like ``NonFiniteError``."""
    data = np.asarray(data)
    return data if data.dtype == np.float32 else data.astype(np.float64, copy=False)


class Tensor:
    """Float32 or float64 array with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = as_float_array(data)
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

    def __repr__(self) -> str:
        grad = ", grad" if self.grad is not None else ""
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}{grad})"

    # arithmetic sugar; defers to the module-level ops below
    def __add__(self, other):
        return add(self, other)

    def __getitem__(self, key):
        return _getitem(self, key)


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


class _Node:
    """One recorded primitive: output, inputs, and a vector-Jacobian hook."""

    __slots__ = ("output", "inputs", "vjp")

    def __init__(self, output: Tensor, inputs: Sequence[Tensor], vjp: Callable):
        self.output = output
        self.inputs = tuple(inputs)
        self.vjp = vjp  # g_out: ndarray -> tuple of (ndarray | None) per input


class _TapeStack(threading.local):
    def __init__(self):
        self.tapes: list[Tape] = []


_TAPES = _TapeStack()  # the calling thread's entered tapes, innermost last


def active_tape() -> Optional["Tape"]:
    tapes = _TAPES.tapes
    return tapes[-1] if tapes else None


class Tape:
    """Ordered op record for one forward pass; use as a context manager."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _TAPES.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPES.tapes.pop()
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


def _row_sums(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``x @ v`` over every row of ``x`` [..., n] as one GEMV -> [..., 1]."""
    return (x.reshape(math.prod(x.shape[:-1]), x.shape[-1]) @ v).reshape(x.shape[:-1] + (1,))


def _row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1)`` over every row of ``x`` [..., n] -> [..., 1], taken
    along the long axis of a transposed copy; a max is exact, so the bytes
    are numpy's own."""
    rows = x.reshape(math.prod(x.shape[:-1]), x.shape[-1])
    return np.ascontiguousarray(rows.T).max(axis=0).reshape(x.shape[:-1] + (1,))


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` over the leading axes ``shape`` was broadcast along, as one GEMV: ones(rows) @ g[rows, shape]."""
    extra = g.ndim - len(shape)
    if not extra:
        return g
    rows = math.prod(g.shape[:extra])
    return (np.ones(rows, g.dtype) @ g.reshape(rows, math.prod(shape))).reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    """``a + b`` for equal shapes, or for a ``b`` of ``a``'s trailing shape, added along ``a``'s leading axes."""
    if b.data.ndim > a.data.ndim or a.data.shape[a.data.ndim - b.data.ndim:] != b.data.shape:
        raise ValueError(f"add takes equal shapes or a right operand of the left's trailing shape, "
                         f"got {a.data.shape} + {b.data.shape}")
    out = a.data + b.data

    def vjp(g):
        return (
            g if a.requires_grad else None,
            _unbroadcast(g, b.data.shape) if b.requires_grad else None,
        )

    return _record(out, (a, b), vjp)


def _check_affine(op: str, x: Tensor, w: Tensor, b: Optional[Tensor]) -> None:
    if x.data.ndim < 2 or w.data.ndim != 2:
        raise ValueError(f"{op} takes a [..., m, k] left operand and a [k, n] matrix on the right, "
                         f"got {x.data.shape} @ {w.data.shape}")
    if x.data.shape[-1] != w.data.shape[0]:
        raise ValueError(f"{op} inner dimensions disagree: {x.data.shape} @ {w.data.shape}")
    n = w.data.shape[1]
    if b is not None and b.data.shape != (n,):
        raise ValueError(f"{op} bias must be [{n}], got {b.data.shape}")


def _product(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``a @ m`` for a [..., r, k] ``a`` and a [k, n] ``m``.  With r == 1 the
    leading rows run as one 2-D product over their [rows, k] view, not as one
    tiny product per row."""
    if a.ndim > 2 and a.shape[-2] == 1:
        return (a.reshape(-1, a.shape[-1]) @ m).reshape(a.shape[:-1] + (m.shape[1],))
    return a @ m


def _affine_vjp(g: np.ndarray, x: np.ndarray, w: np.ndarray, need_x: bool, need_w: bool, need_b: bool) -> tuple:
    """(gx, gw, gb) of ``x @ w + b``, each None unless needed; the transposed
    ``w`` is copied unit-stride first, gw is one GEMM over every row of x."""
    k, n = w.shape
    rows = math.prod(x.shape[:-1])
    gx = _product(g, np.ascontiguousarray(w.T)) if need_x else None
    gw = x.reshape(rows, k).T @ g.reshape(rows, n) if need_w else None
    gb = _unbroadcast(g, (n,)) if need_b else None
    return gx, gw, gb


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ w + b`` as one node, [..., m, k] @ [k, n] + [n]; ``b`` may be None."""
    _check_affine("linear", x, w, b)
    out = _product(x.data, w.data)
    if b is not None:
        out += b.data
    inputs = (x, w) if b is None else (x, w, b)

    def vjp(g):
        need_b = b is not None and b.requires_grad
        return _affine_vjp(g, x.data, w.data, x.requires_grad, w.requires_grad, need_b)[:len(inputs)]

    return _record(out, inputs, vjp)


def norm_linear(xhat: Tensor, gain: Tensor, shift: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """``(gain * xhat + shift) @ w + b`` as one node: a layer norm's affine
    folded into the affine map that reads the normalized rows ``xhat``.

    It runs as ``xhat @ (gain[:, None] * w) + (shift @ w + b)``, so the
    affine costs products on [k, n] matrices instead of passes over the
    rows.  ``b`` may be None (a map with no bias).  ``linear``'s vjp core
    gives gx, the folded weight's gradient gw' = xhat^T g and the row sum gc
    of g; the vjp derives gw = gain[:, None] * gw' + outer(shift, gc), the
    gain's gradient sum_n(w * gw'), the shift's w @ gc and the bias's gc.
    """
    _check_affine("norm_linear", xhat, w, b)
    k = w.data.shape[0]
    if gain.data.shape != (k,) or shift.data.shape != (k,):
        raise ValueError(f"norm_linear gain and shift must be [{k}], got {gain.data.shape}, {shift.data.shape}")
    folded = gain.data[:, None] * w.data
    offset = shift.data @ w.data
    if b is not None:
        offset += b.data
    out = _product(xhat.data, folded)
    out += offset
    inputs = (xhat, gain, shift, w) if b is None else (xhat, gain, shift, w, b)

    def vjp(g):
        need_c = shift.requires_grad or w.requires_grad or (b is not None and b.requires_grad)
        gx, gfolded, gc = _affine_vjp(g, xhat.data, folded, xhat.requires_grad,
                                      gain.requires_grad or w.requires_grad, need_c)
        ggain = np.einsum("kn,kn->k", w.data, gfolded) if gain.requires_grad else None
        gshift = w.data @ gc if shift.requires_grad else None
        gw = None
        if w.requires_grad:  # gfolded's last reader: scaled in place
            gw = np.multiply(gfolded, gain.data[:, None], out=gfolded)
            gw += np.outer(shift.data, gc)
        return (gx, ggain, gshift, gw, gc)[:len(inputs)]

    return _record(out, inputs, vjp)


def attention_core(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head softmax(q k^T / sqrt(dh)) v as one node.

    [B, Sq, d], [B, Sk, d], [B, Sk, dv] -> [B, Sq, dv].  The projections are
    split into ``heads`` heads of width dh = d / heads (and dv / heads) as
    views, each head attends on its own with scale dh^-0.5, and the heads'
    outputs are joined back along the last axis.  Only the attention weights
    [B, heads, Sq, Sk] are kept for the reverse pass, which uses the softmax
    identity dS = P * (dP - rowsum(dP * P)).
    """
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
    p = qh @ np.ascontiguousarray(kh.swapaxes(-1, -2))
    p *= scale
    if not np.isfinite(p).all():
        raise NonFiniteError("attention_core", p.shape, "score")
    # softmax in place on the score buffer; the row sum is a GEMV
    ones = np.ones(p.shape[-1], p.dtype)
    p -= _row_max(p)
    np.exp(p, out=p)
    p /= _row_sums(p, ones)
    out = merge(p @ vh)

    def vjp(g):
        g = split(g)
        gv = merge(p.swapaxes(-1, -2) @ g) if v.requires_grad else None
        gs = g @ np.ascontiguousarray(vh.swapaxes(-1, -2))
        gs -= _row_sums(gs * p, ones)
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


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ValueError("concat of an empty sequence")
    axis = int(axis)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    cuts = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
    return _record(out, tensors, lambda g: tuple(np.split(g, cuts, axis=axis)))


def index_rows(a: Tensor, indices) -> Tensor:
    """Gather rows along axis 0 by integer index (duplicates allowed) -> ``indices.shape + a.shape[1:]``."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim < 1:
        raise ValueError("index_rows expects an integer index array of rank >= 1")
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise IndexError(f"row index out of range for axis of length {a.data.shape[0]}")
    out = a.data[idx]

    def vjp(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return (ga,)

    return _record(out, (a,), vjp)


def _basic_index(k) -> bool:
    return (k is None or k is Ellipsis or isinstance(k, slice)
            or (isinstance(k, (int, np.integer)) and not isinstance(k, bool)))


def _getitem(a: Tensor, key) -> Tensor:
    """Basic indexing (ints, slices, None, ...) only: an integer-array, list or
    boolean key can repeat an element, which the buffered ``ga[key] += g``
    of the vjp would count once."""
    if not all(_basic_index(k) for k in (key if isinstance(key, tuple) else (key,))):
        raise TypeError(f"Tensor indexing takes ints and slices only, got {key!r}; "
                        "gather rows with tensor.index_rows")
    out = np.asarray(a.data[key])

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
        g = g / b
        gx = g * (e / s)
        gx[rows, labels] -= g
        return (gx,)

    return _record(np.asarray(out), (logits,), vjp)


def layer_norm(a: Tensor) -> Tensor:
    """The last axis at zero mean and unit variance (eps 1e-6), with no
    affine: the maps that read a norm apply its gain and shift
    (``norm_linear``)."""
    d = a.data.shape[-1]
    inv_d = np.full(d, 1.0 / d, a.data.dtype)  # row means as GEMVs
    xhat = a.data - _row_sums(a.data, inv_d)
    inv = 1.0 / np.sqrt(_row_sums(xhat * xhat, inv_d) + 1e-6)
    xhat *= inv

    def vjp(g):
        # d/dx of (x - mu) * inv with mu, var both functions of x
        gx = g - _row_sums(g, inv_d)
        gx -= xhat * _row_sums(g * xhat, inv_d)
        gx *= inv
        return (gx,)

    return _record(xhat, (a,), vjp)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _record(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


_GELU_C = math.sqrt(2.0 / math.pi)  # a Python float, so float32 arithmetic stays float32
_GELU_A = 0.044715


def gelu(a: Tensor) -> Tensor:
    """Tanh-approximate gelu x * h, with the gate h = 0.5 (1 + tanh(c (x + a x^3))).

    The tape keeps only h: since 1 - tanh^2 = 4 h (1 - h), the derivative is
    h + 2 c x h (1 - h) (1 + 3 a x^2).  Forward and vjp work in place on their
    own buffers; the vjp forms h (1 - h) x before the polynomial, so a
    saturated gate gives 0, not 0 * inf, up to where x^2 overflows.
    """
    x = a.data
    h = x * x  # x**3 spelled as repeated products: numpy's pow ufunc is ~60x slower
    h *= _GELU_C * _GELU_A
    h += _GELU_C
    h *= x
    np.tanh(h, out=h)
    h *= 0.5
    h += 0.5
    out = x * h

    def vjp(g):
        gx = np.subtract(1.0, h)
        gx *= h
        gx *= x
        poly = x * x
        poly *= 6.0 * _GELU_C * _GELU_A
        poly += 2.0 * _GELU_C
        gx *= poly
        gx += h
        gx *= g
        return (gx,)

    return _record(out, (a,), vjp)


def stop_gradient(a: Tensor) -> Tensor:
    """``a``'s values as a constant: the result shares ``a``'s storage, needs
    no gradient and records no node, so no gradient flows back through it
    and a leaf read only through it keeps ``.grad`` None."""
    return Tensor(a.data)


def backward(loss: Tensor, tape: Tape) -> None:
    """Set ``.grad`` = d(loss)/d(leaf) on each leaf the loss reaches.

    A leaf is an input that no node on the tape produced; one the loss does
    not reach keeps the ``.grad`` it had.  Intermediate tensors get no
    ``.grad``: each node's output gradient is dropped as soon as its vjp
    has read it, so a step holds only the gradients still to be consumed.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    if loss.requires_grad and not any(node.output is loss for node in reversed(tape.nodes)):
        raise RuntimeError(
            "loss is not the output of an op on this tape; "
            "run the forward pass inside `with Tape():`"
        )

    # vjps may return views of their upstream gradient or of each other's
    # results, so a stored gradient is never updated in place
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)} if loss.requires_grad else {}
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

    # the loop popped every node output's gradient; the rest belong to reached leaves
    for node in tape.nodes:
        for t in node.inputs:
            g = grads.pop(id(t), None)
            if g is not None:
                t.grad = np.array(g, dtype=t.data.dtype, copy=True)
