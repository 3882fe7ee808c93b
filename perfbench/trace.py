"""Span recorder and the wrappers that put spans around the package's layers.

A traced run replaces the public functions of every package module with
wrappers that open a span on entry and close it on exit.  Spans live in
flat in-memory arrays (name id, start, end, parent, one integer argument)
and are written out once, when the run ends.  Tensor ops additionally wrap
the ``vjp`` of every tape node they append, so backward time is charged
to the op that recorded the node.

Names imported into another module's namespace (``context`` imports
``vit.encode_tokens`` by name, ``train`` imports ``tensor.backward``) are
patched wherever the same function object appears.
"""

from __future__ import annotations

import functools
import time
import types
from array import array

import numpy as np

_now = time.perf_counter

# Modules whose public functions are layer boundaries, in package order.
LAYER_MODULES = ("data", "tensor", "vit", "context", "train", "evaluation", "checkpoint", "verify", "gradcheck")

# Private functions that carry a per-layer metric of their own.
EXTRA_TARGETS = {
    "tensor": ("_getitem",),
    "gradcheck": ("_evaluate",),
}

# make_batches gets per-batch spans from the step hooks; active_tape is a
# lookup every op makes, too small to carry a span of its own.
SKIP = {("data", "make_batches"), ("tensor", "active_tape")}

# Tensor helpers that create tensors or run the tape rather than compute an op.
TENSOR_NON_OPS = {"Tensor", "Tape", "tensor", "constant", "backward"}

NO_ARG = -1


class Recorder:
    """Spans in flat arrays; parents are indices of earlier spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.arg = array("q")
        self._stack: list[int] = []

    def intern(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name_id: int, arg: int = NO_ARG, start: float | None = None) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.arg.append(arg)
        self.end.append(float("nan"))
        self.start.append(_now() if start is None else start)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _now()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.names[self.name[idx]]} closed out of order")

    def record(self, name_id: int, start: float, end: float) -> None:
        """A span already finished, as a child of the innermost open span."""
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.arg.append(NO_ARG)
        self.start.append(start)
        self.end.append(end)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "arg": np.frombuffer(self.arg, dtype=np.int64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _span(fn, rec: Recorder, name_id: int, arg_of=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name_id, arg_of(*args, **kwargs) if arg_of else NO_ARG)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)

    return wrapper


def _tensor_op(fn, rec: Recorder, name: str, tensor_mod):
    """Span around an op, plus a span around each tape node's vjp it adds."""
    fwd_id = rec.intern(f"tensor.{name}")
    bwd_id = rec.intern(f"tensor.{name}.vjp")

    def timed_vjp(vjp):
        def run(g):
            idx = rec.open(bwd_id)
            try:
                return vjp(g)
            finally:
                rec.close(idx)

        run.bench_op = name
        return run

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tape = tensor_mod.active_tape()
        before = len(tape.nodes) if tape is not None else 0
        idx = rec.open(fwd_id)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)
            if tape is not None:
                # an op that calls another op (activation -> gelu) finds the
                # inner op's nodes already wrapped; the span's argument is
                # the number of nodes this op itself appended
                added = 0
                for node in tape.nodes[before:]:
                    if not hasattr(node.vjp, "bench_op"):
                        node.vjp = timed_vjp(node.vjp)
                        added += 1
                rec.arg[idx] = added

    return wrapper


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_everywhere(self, modules, original, replacement) -> None:
        """Rebind every module-level name that refers to ``original``."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def install_tracing(pkg_modules: dict, rec: Recorder, patches: Patches) -> None:
    """Wrap the layer boundaries of every module in ``pkg_modules`` (name -> module)."""
    modules = list(pkg_modules.values())
    tensor_mod = pkg_modules["tensor"]
    for mod_name in LAYER_MODULES:
        mod = pkg_modules[mod_name]
        names = [n for n in getattr(mod, "__all__", ()) if (mod_name, n) not in SKIP]
        names += list(EXTRA_TARGETS.get(mod_name, ()))
        for name in names:
            fn = getattr(mod, name)
            if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                continue
            if mod_name == "tensor":
                if name in TENSOR_NON_OPS:
                    wrapped = _span(fn, rec, rec.intern(f"tensor.{name}"))
                else:
                    wrapped = _tensor_op(fn, rec, name.lstrip("_"), tensor_mod)
            elif (mod_name, name) == ("context", "contextvit_forward"):
                wrapped = _span(fn, rec, rec.intern("context.contextvit_forward"),
                                arg_of=lambda batch, *a, **k: len(batch.partition))
            else:
                wrapped = _span(fn, rec, rec.intern(f"{mod_name}.{name.lstrip('_')}"))
            patches.replace_everywhere(modules, fn, wrapped)
    cvit = pkg_modules["context"].ContextViT
    patches.set(cvit, "forward", _span(cvit.forward, rec, rec.intern("context.ContextViT.forward"),
                                       arg_of=lambda self, batch, *a, **k: batch.size))


# ---------------------------------------------------------------------------
# span arithmetic


class SpanTable:
    """Vectorised views of a finished recording."""

    def __init__(self, rec: Recorder):
        a = rec.arrays()
        self.names = rec.names
        self.name = a["name"]
        self.parent = a["parent"]
        self.arg = a["arg"]
        self.dur = a["end"] - a["start"]
        if np.isnan(self.dur).any():
            raise RuntimeError("trace holds spans that were never closed")
        self.module = np.array([n.split(".", 1)[0] for n in self.names] or [""], dtype=object)[self.name]

    def ids(self, *names: str) -> np.ndarray:
        return np.array([self.names.index(n) for n in names if n in self.names], dtype=np.int32)

    def is_name(self, *names: str) -> np.ndarray:
        return np.isin(self.name, self.ids(*names))

    def inside(self, *names: str) -> np.ndarray:
        """True for spans that have an ancestor with one of ``names``."""
        target = self.is_name(*names)
        out = np.zeros(self.name.size, dtype=bool)
        anc = self.parent.copy()
        live = anc >= 0
        while live.any():
            out[live] |= target[anc[live]]
            anc[live] = self.parent[anc[live]]
            live = anc >= 0
        return out

    def child_time(self, child_mask: np.ndarray) -> np.ndarray:
        """Per span, the summed duration of its direct children in ``child_mask``."""
        has_parent = (self.parent >= 0) & child_mask
        return np.bincount(self.parent[has_parent], weights=self.dur[has_parent], minlength=self.name.size)
