"""Correctness checks run inside every workload.

Each check compares an output of the program with a value computed apart
from it (``reference.py``) or with a property the output must have.  A
failed check raises ``CheckFailed``; the run then reports
``"correct": false``.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from . import reference as ref


class CheckFailed(AssertionError):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _logits(cv, model, batch) -> np.ndarray:
    with cv.tensor.Tape():
        _, logits = model.forward(batch, train=False)
    return np.array(logits.data, copy=True)


def _arrays(model) -> dict[str, np.ndarray]:
    return {name: p.data for name, p in model.parameters().items()}


def reference_logits(cv, model, subset, batch_size: int, batches: int) -> float:
    """Program logits against the numpy forward on held-out batches; returns
    the worst relative difference."""
    cfg = model.config
    worst = 0.0
    for start in range(0, min(subset.size, batch_size * batches), batch_size):
        idx = np.arange(start, min(start + batch_size, subset.size))
        batch = cv.context.GroupedBatch(subset.images[idx], subset.labels[idx], subset.groups[idx])
        got = _logits(cv, model, batch)
        want = ref.contextvit_logits(batch.images, batch.groups, _arrays(model), cfg.patch, cfg.heads,
                                     cfg.depth, layerwise=model.kind.layerwise)
        err = float(np.abs(got - want).max() / max(1.0, float(np.abs(want).max())))
        require(err <= ref.tolerance(got.dtype),
                f"logits differ from the numpy reference by {err:.3e} (tolerance {ref.tolerance(got.dtype):.1e})")
        worst = max(worst, err)
    return worst


def permutation_invariance(cv, model, subset, batch_size: int, seed: int) -> float:
    """Permuting a batch's members permutes its logits and changes nothing else."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(subset.size, size=min(batch_size, subset.size), replace=False)
    batch = cv.context.GroupedBatch(subset.images[idx], subset.labels[idx], subset.groups[idx])
    perm = rng.permutation(batch.size)
    shuffled = cv.context.GroupedBatch(batch.images[perm], batch.labels[perm], batch.groups[perm])
    base, moved = _logits(cv, model, batch), _logits(cv, model, shuffled)
    err = float(np.abs(moved - base[perm]).max() / max(1.0, float(np.abs(base).max())))
    require(err <= ref.tolerance(base.dtype), f"permuting batch members changed logits by {err:.3e}")
    return err


def adamw_matches_formula(cv, model, batch, seed: int) -> float:
    """One ``adamw_step`` from non-trivial moments against the textbook update."""
    params = model.trainable_parameters()
    with cv.tensor.Tape() as tape:
        _, logits = model.forward(batch, train=False)
        cv.tensor.backward(cv.train.batch_cross_entropy(logits, batch.labels), tape)
    rng = np.random.default_rng(seed)
    state = cv.train.AdamWState.init(params)
    state.step = 4
    for name, p in params.items():
        state.m[name][...] = 0.01 * rng.standard_normal(p.data.shape)
        state.v[name][...] = 1e-4 * rng.random(p.data.shape)
    before = {}
    for name, p in params.items():
        # parameters off the tape (unused context heads) have no gradient: zero
        grad = p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
        before[name] = (p.data.copy(), grad, state.m[name].copy(), state.v[name].copy())
    lr, wd = 1e-3, 0.05
    cv.train.adamw_step(params, state, lr, wd)
    worst = 0.0
    for name, p in params.items():
        data, grad, m, v = before[name]
        short = name.removeprefix("context.")
        want = ref.adamw_update(data, grad, m, v, 5, lr, wd, ref.decays(short, data.shape))
        err = float(np.abs(p.data - want).max() / max(1.0, float(np.abs(want).max())))
        require(err <= ref.tolerance(p.data.dtype), f"AdamW update of {name} off by {err:.3e}")
        worst = max(worst, err)
        p.data = data  # leave the trained model as it was
    return worst


def loss_decreases(result, num_classes: int) -> tuple[float, float]:
    losses = [value for _, split, metric, value, _, _ in result.metrics_rows if (split, metric) == ("train", "loss")]
    first, last = losses[0], losses[-1]
    require(last < first, f"last epoch's train loss {last:.4f} is not below the first's {first:.4f}")
    require(last < math.log(num_classes), f"last epoch's train loss {last:.4f} is not below ln(K)")
    return first, last


def above_chance(accuracy: float, num_classes: int, what: str) -> None:
    require(accuracy > 1.0 / num_classes, f"{what} {accuracy:.4f} is not above chance 1/{num_classes}")


def checkpoint_round_trip(cv, model, batch, path: str) -> tuple[float, float, int]:
    """save -> load -> restore into a fresh model reproduces logits bit for bit.

    Returns (save seconds, load seconds, file bytes).
    """
    want = _logits(cv, model, batch)
    t0 = time.perf_counter()
    cv.checkpoint.save_checkpoint(path, model.parameters(), "perfbench", ema_state=model.ema_state)
    t1 = time.perf_counter()
    ckpt = cv.checkpoint.load_checkpoint(path)
    t2 = time.perf_counter()
    size = os.path.getsize(path)
    os.remove(path)
    fresh = cv.context.ContextViT.create(model.config, model.kind, seed=12345)
    cv.checkpoint.restore_into(fresh.parameters(), ckpt)
    fresh.ema_state = ckpt.ema_state()
    got = _logits(cv, fresh, batch)
    require(got.tobytes() == want.tobytes(), "restored checkpoint does not reproduce the logits bitwise")
    return t1 - t0, t2 - t1, size


# Exported names of contextvit.tensor that are not differentiable ops.
NOT_OPS = {
    "Tensor", "Tape", "active_tape", "tensor", "constant", "backward",
    "stop_gradient",  # sends exactly zero by construction; checked through the detached kinds
    "activation",  # dispatches to gelu / relu, which are checked themselves
}


def gradient_coverage(cv, results: dict[str, float]) -> None:
    """The suite covers every differentiable op and every context kind."""
    ops = {n for n in cv.tensor.__all__ if n not in NOT_OPS}
    missing = sorted(f"op.{n}" for n in ops if f"op.{n}" not in results)
    missing += sorted(f"model.{k}" for k in cv.context.CONTEXT_KIND_NAMES if f"model.{k}" not in results)
    require(not missing, f"gradient suite does not cover {missing}")
    require(all(math.isfinite(v) for v in results.values()), "gradient suite returned a non-finite error")
