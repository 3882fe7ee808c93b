"""Gradient verification suite: every op, then the full toy model per kind.

Used by the ``grad-check`` CLI command and the test suite.  Op checks
probe every differentiable primitive on small random shapes against
central finite differences; model checks run the complete conditioned
forward pass (16x16 images, patch 4, d=16, depth 2) for each context
kind.  Detached kinds, ``ema`` among them, freeze their context inputs:
the analytic pass records the array at each record/replay boundary
(``contextvit_forward(..., frozen_context_inputs=...)``) and every
finite-difference forward replays it as a constant, so the oracle
compares only the declared-differentiable subgraph.
"""

from __future__ import annotations

from typing import Sequence

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
OP_SEEDS = (0, 1, 2)
MODEL_SEED = 0
MAX_COORDS = 4  # probed coordinates per parameter in a model check


def _weighted(out: Tensor, coeff: np.ndarray) -> Tensor:
    """Random linear functional <out, coeff>, one [1, n] @ [n, 1] product: a
    plain sum would hide axis-mixing errors (e.g. softmax rows sum to one)."""
    n = out.size
    return T.reshape(T.linear(T.reshape(out, (1, n)), T.constant(np.reshape(coeff, (n, 1)))), ())


def op_gradient_checks(seed: int = 0) -> dict[str, float]:
    """Worst finite-difference relative error per differentiable op.

    Each check draws its dims, then its inputs in argument order, then any
    extra draws (indices, labels), and ``check`` draws the functional last,
    so every check reads the shared random stream in a fixed order.
    """
    rng = generator(child_seed(seed, "opcheck"))
    dims = lambda *s: tuple(int(rng.integers(1, 8)) if d is None else d for d in s)
    rand = lambda *shape: rng.standard_normal(shape)
    errors: dict[str, float] = {}

    def check(name: str, op, *inputs: np.ndarray) -> None:
        """Error of ``op`` on ``inputs`` under a random functional shaped like
        its output; a scalar output is checked as it is."""
        params = {f"x{i}": Tensor(x, requires_grad=True) for i, x in enumerate(inputs)}
        shape = op(*map(T.constant, inputs)).shape
        c = rand(*shape) if shape else None

        def f():
            out = op(*params.values())
            return _weighted(out, c) if shape else out

        errors[name] = finite_diff_check(f, params, step=STEP)

    m, n = dims(None, None)
    check("add", T.add, rand(m, n), rand(m, n))
    # coordinates within one step of the kink would make the central difference straddle it
    x = rand(*dims(None, None))
    check("relu", T.relu, x + np.copysign(100 * STEP, x))
    check("gelu", T.gelu, rand(*dims(None, None)))
    m, k, n = dims(None, None, None)
    check("linear_no_bias", T.linear, rand(m, k), rand(k, n))
    b, m, k, n = dims(None, None, None, None)
    check("linear_no_bias_batched", T.linear, rand(b, m, k), rand(k, n))
    check("reshape", lambda a: T.reshape(a, (a.size,)), rand(*dims(None, None)))
    m1, m2, n = dims(None, None, None)
    check("concat", lambda a, b: T.concat([a, b], axis=0), rand(m1, n), rand(m2, n))
    m, n = dims(None, None)
    a = rand(m, n)
    idx = rng.integers(0, m, size=m + 2)  # duplicates exercise accumulation
    check("index_rows", lambda a: T.index_rows(a, idx), a)
    check("getitem", lambda a: a[1:3], rand(*dims(4, None)))
    m, n = dims(None, None)
    a = rand(m, n) * 3.0
    labels = rng.integers(0, n, m)
    check("cross_entropy", lambda a: T.cross_entropy(a, labels), a)
    m, n = dims(None, 6)
    check("layer_norm", T.layer_norm, rand(m, n))
    b, m, k, n = dims(None, None, None, None)
    check("linear", T.linear, rand(b, m, k), rand(k, n), rand(n))
    b, m, k, n = dims(None, None, None, None)
    check("norm_linear", T.norm_linear, rand(b, m, k), 1.0 + 0.1 * rand(k), 0.1 * rand(k), rand(k, n), rand(n))
    # no bias, on [b, 1, k] rows: the one-row product path
    b, k, n = dims(None, None, None)
    check("norm_linear_no_bias", T.norm_linear, rand(b, 1, k), 1.0 + 0.1 * rand(k), 0.1 * rand(k), rand(k, n))
    b, sq, sk, dh, dv, heads = dims(None, None, None, None, None, 2)
    check("attention_core", lambda q, k, v: T.attention_core(q, k, v, heads),
          rand(b, sq, heads * dh), rand(b, sk, heads * dh), rand(b, sk, heads * dv))
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


def toy_model_gradient_check(kind_name: str, seed: int = 0) -> float:
    """End-to-end FD check of cross-entropy through the full forward pass.

    Detached kinds, ``ema`` among them, freeze their context inputs: the
    analytic pass records them into ``frozen`` and every finite-difference
    forward replays them as constants."""
    model, batch = _toy_setup(kind_name, seed)
    frozen = {} if model.kind.detach else None

    def f():
        _, logits = model.forward(batch, train=False, sample_seed=7, frozen_context_inputs=frozen)
        return batch_cross_entropy(logits, batch.labels)

    return finite_diff_check(f, model.trainable_parameters(), step=STEP, max_coords=MAX_COORDS, seed=seed)


def run_gradient_suite(kinds: Sequence[str] = CONTEXT_KIND_NAMES) -> dict[str, float]:
    """All op checks at ``OP_SEEDS`` plus one toy-model check per kind at
    ``MODEL_SEED``; name -> worst error."""
    results: dict[str, float] = {}
    for s in OP_SEEDS:
        for name, err in op_gradient_checks(seed=s).items():
            key = f"op.{name}"
            results[key] = max(results.get(key, 0.0), err)
    for kind_name in kinds:
        results[f"model.{kind_name}"] = toy_model_gradient_check(kind_name, seed=MODEL_SEED)
    return results
