"""Gradient verification suite: every op, then the full toy model per kind.

Used by the ``grad-check`` CLI command and the test suite.  Op checks
probe every differentiable primitive on small random shapes against
central finite differences; model checks run the complete conditioned
forward pass (16x16 images, patch 4, d=16, depth 2) for each context
kind.  Detached and EMA paths are frozen to recorded constants first,
so the oracle compares only the declared-differentiable subgraph.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .context import CONTEXT_KIND_NAMES, ContextKind, ContextViT, GroupedBatch
from .gradcheck import finite_diff_check
from .rng import child_seed, generator
from .tensor import Tensor
from .train import batch_cross_entropy
from .vit import ViTConfig

__all__ = ["op_gradient_checks", "toy_model_gradient_check", "run_gradient_suite", "TOLERANCE"]

TOLERANCE = 1e-4
STEP = 1e-4


def _rand(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape)


def _weighted(out: Tensor, coeff: np.ndarray) -> Tensor:
    """Random linear functional <out, coeff>, one [1, n] @ [n, 1] product: a
    plain sum would hide axis-mixing errors (e.g. softmax rows sum to one)."""
    n = out.size
    return T.reshape(T.matmul(T.reshape(out, (1, n)), T.constant(np.reshape(coeff, (n, 1)))), ())


def op_gradient_checks(seed: int = 0) -> dict[str, float]:
    """Worst finite-difference relative error per differentiable op."""
    rng = generator(child_seed(seed, "opcheck"))
    dims = lambda *s: tuple(int(rng.integers(1, 8)) if d is None else d for d in s)
    errors: dict[str, float] = {}

    def check(name: str, make):
        params, f = make()
        errors[name] = finite_diff_check(f, params, step=STEP)

    def unary(op, *shape, margin: float = 0.0):
        """One random input of ``shape`` (None: a random length), each coordinate ``margin`` off zero."""

        def make():
            x = _rand(rng, *dims(*shape))
            a = Tensor(x + np.copysign(margin, x), requires_grad=True)
            c = _rand(rng, *op(T.constant(a.data)).shape)
            return {"a": a}, lambda: _weighted(op(a), c)

        return make

    def make_add():
        shape = dims(None, None)
        a = Tensor(_rand(rng, *shape), requires_grad=True)
        b = Tensor(_rand(rng, *shape), requires_grad=True)
        c = _rand(rng, *shape)
        return {"a": a, "b": b}, lambda: _weighted(T.add(a, b), c)

    check("add", make_add)
    # coordinates within one step of the kink would make the central difference straddle it
    check("relu", unary(T.relu, None, None, margin=100 * STEP))
    check("gelu", unary(T.gelu, None, None))

    def make_matmul():
        m, k, n = dims(None, None, None)
        a = Tensor(_rand(rng, m, k), requires_grad=True)
        b = Tensor(_rand(rng, k, n), requires_grad=True)
        c = _rand(rng, m, n)
        return {"a": a, "b": b}, lambda: _weighted(T.matmul(a, b), c)

    check("matmul", make_matmul)

    def make_matmul_batched():
        bsz, m, k, n = dims(None, None, None, None)
        a = Tensor(_rand(rng, bsz, m, k), requires_grad=True)
        b = Tensor(_rand(rng, k, n), requires_grad=True)
        c = _rand(rng, bsz, m, n)
        return {"a": a, "b": b}, lambda: _weighted(T.matmul(a, b), c)

    check("matmul_batched", make_matmul_batched)

    check("reshape", unary(lambda a: T.reshape(a, (a.size,)), None, None))

    def make_broadcast():
        b, n = dims(None, None)
        a = Tensor(_rand(rng, 1, n), requires_grad=True)
        c = _rand(rng, b, n)
        return {"a": a}, lambda: _weighted(T.broadcast_to(a, (b, n)), c)

    check("broadcast_to", make_broadcast)

    def make_concat():
        m1, m2, n = dims(None, None, None)
        a = Tensor(_rand(rng, m1, n), requires_grad=True)
        b = Tensor(_rand(rng, m2, n), requires_grad=True)
        c = _rand(rng, m1 + m2, n)
        return {"a": a, "b": b}, lambda: _weighted(T.concat([a, b], axis=0), c)

    check("concat", make_concat)

    def make_index_rows():
        m, n = dims(None, None)
        a = Tensor(_rand(rng, m, n), requires_grad=True)
        idx = rng.integers(0, m, size=m + 2)  # duplicates exercise accumulation
        c = _rand(rng, m + 2, n)
        return {"a": a}, lambda: _weighted(T.index_rows(a, idx), c)

    check("index_rows", make_index_rows)

    check("getitem", unary(lambda a: a[1:3], 4, None))

    def make_cross_entropy():
        m, n = dims(None, None)
        a = Tensor(_rand(rng, m, n) * 3.0, requires_grad=True)
        labels = rng.integers(0, n, m)
        return {"a": a}, lambda: T.cross_entropy(a, labels)

    check("cross_entropy", make_cross_entropy)

    def make_layer_norm():
        m, n = dims(None, 6)
        a = Tensor(_rand(rng, m, n), requires_grad=True)
        gain = Tensor(1.0 + 0.1 * _rand(rng, n), requires_grad=True)
        bias = Tensor(0.1 * _rand(rng, n), requires_grad=True)
        c = _rand(rng, m, n)
        return {"a": a, "gain": gain, "bias": bias}, lambda: _weighted(
            T.layer_norm(a, gain, bias, 1e-6), c
        )

    check("layer_norm", make_layer_norm)

    def make_linear():
        bsz, m, k, n = dims(None, None, None, None)
        x = Tensor(_rand(rng, bsz, m, k), requires_grad=True)
        w = Tensor(_rand(rng, k, n), requires_grad=True)
        b = Tensor(_rand(rng, n), requires_grad=True)
        c = _rand(rng, bsz, m, n)
        return {"x": x, "w": w, "b": b}, lambda: _weighted(T.linear(x, w, b), c)

    check("linear", make_linear)

    def make_attention_core():
        bsz, sq, sk, dh, dv, heads = dims(None, None, None, None, None, 2)
        q = Tensor(_rand(rng, bsz, sq, heads * dh), requires_grad=True)
        k = Tensor(_rand(rng, bsz, sk, heads * dh), requires_grad=True)
        v = Tensor(_rand(rng, bsz, sk, heads * dv), requires_grad=True)
        c = _rand(rng, bsz, sq, heads * dv)
        return {"q": q, "k": k, "v": v}, lambda: _weighted(T.attention_core(q, k, v, heads), c)

    check("attention_core", make_attention_core)

    return errors


def _toy_setup(kind_name: str, seed: int):
    config = ViTConfig(
        image_h=16, image_w=16, channels=3, patch=4, dim=16, depth=2, heads=2, num_classes=3
    )
    kind = ContextKind.from_name(kind_name, patches=8)
    model = ContextViT.create(config, kind, seed=seed, group_ids=[0, 1])
    # nudge every trainable parameter off its init so zero-initialized heads
    # do not silence the paths under test
    for name, p in model.trainable_parameters().items():
        noise = generator(child_seed(seed, "nudge", name)).standard_normal(p.data.shape)
        p.data = p.data + 0.05 * noise
    if kind.base == "deep_sets":
        # relu pre-activations must sit clear of zero or the central
        # difference steps across the kink and disagrees with the mask
        for net in ("phi", "rho"):
            for bias in ("b1", "b2"):
                p = model.context[f"ctx_{net}.{bias}"]
                p.data = p.data + 0.5
    rng = generator(child_seed(seed, "toy_batch"))
    images = rng.uniform(0.0, 1.0, size=(6, 16, 16, 3))
    labels = rng.integers(0, 3, size=6)
    groups = np.array([0, 0, 0, 1, 1, 1])
    batch = GroupedBatch(images, labels, groups)
    batch.partition  # built here, not inside the first timed forward of a check
    return model, batch


def toy_model_gradient_check(kind_name: str, seed: int = 0, max_coords: Optional[int] = 4) -> float:
    """End-to-end FD check of cross-entropy through the full forward pass."""
    model, batch = _toy_setup(kind_name, seed)
    params = model.trainable_parameters()

    needs_freeze = model.kind.detach or model.kind.base == "ema"
    override = None
    if needs_freeze:
        override = {}
        model.forward(batch, train=False, sample_seed=7, capture_context_inputs=override)

    def f():
        _, logits = model.forward(
            batch, train=False, sample_seed=7, context_input_override=override
        )
        return batch_cross_entropy(logits, batch.labels)

    return finite_diff_check(f, params, step=STEP, max_coords=max_coords, seed=seed)


def run_gradient_suite(
    kinds: Sequence[str] = CONTEXT_KIND_NAMES,
    op_seeds: Sequence[int] = (0, 1, 2),
    model_seed: int = 0,
    max_coords: Optional[int] = 4,
) -> dict[str, float]:
    """All op checks plus one toy-model check per kind; name -> worst error."""
    results: dict[str, float] = {}
    for s in op_seeds:
        for name, err in op_gradient_checks(seed=s).items():
            key = f"op.{name}"
            results[key] = max(results.get(key, 0.0), err)
    for kind_name in kinds:
        results[f"model.{kind_name}"] = toy_model_gradient_check(
            kind_name, seed=model_seed, max_coords=max_coords
        )
    return results
