"""Fine-tuning and linear probing with AdamW / SGD and cosine schedules.

Fine-tuning trains backbone, context parameters, and classifier head
jointly; probing freezes everything except a freshly zeroed head and
uses SGD with momentum.  Learning rate warms up linearly then decays on
a cosine; weight decay rises on a cosine from its start to its end
value.  Decay is decoupled and skipped for biases, norm parameters, the
CLS token, and context tokens.  Everything is seeded, so a fixed config
reproduces the exact trajectory.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .context import CONTEXT_KIND_NAMES, ContextViT, GroupedBatch
from .data import DatasetSplit, batches_per_epoch, make_batches
from .rng import child_seed
from .tensor import NonFiniteError, Tape, Tensor, backward

__all__ = [
    "TrainConfig",
    "AdamWState",
    "SGDState",
    "batch_cross_entropy",
    "is_decay_exempt",
    "adamw_step",
    "sgd_momentum_step",
    "schedules",
    "TrainResult",
    "predictions",
    "fine_tune",
    "linear_probe",
    "write_metrics_csv",
    "write_summary_json",
]

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 64
    base_lr: float = 3e-3
    final_lr: float = 1e-5
    warmup_epochs: int = 2
    weight_decay_start: float = 0.04
    weight_decay_end: float = 0.4
    momentum: float = 0.9
    seed: int = 0
    context_kind: str = "none"
    sampler: str = "uniform"

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (0 <= self.warmup_epochs < self.epochs):
            raise ValueError("warmup_epochs must satisfy 0 <= warmup < epochs")
        if not all(math.isfinite(lr) and lr > 0 for lr in (self.base_lr, self.final_lr)):
            raise ValueError("learning rates must be finite and > 0")
        if not all(math.isfinite(wd) and wd >= 0 for wd in (self.weight_decay_start, self.weight_decay_end)):
            raise ValueError("weight decays must be finite and >= 0")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.context_kind not in CONTEXT_KIND_NAMES:
            raise ValueError(f"unknown context kind {self.context_kind!r}")
        if self.sampler not in ("uniform", "context"):
            raise ValueError(f"sampler must be uniform or context, got {self.sampler!r}")


def batch_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean of -log softmax(logits[i])[labels[i]] over a [B, K] batch: the
    one-node ``tensor.cross_entropy``, kept as a function of its own so the
    loss can be timed by name."""
    return T.cross_entropy(logits, labels)


def is_decay_exempt(name: str) -> bool:
    """Biases, norm parameters, the CLS token, and context tokens skip decay."""
    leaf = name.rsplit(".", 1)[-1]
    if leaf.startswith("b"):  # b, bias, b1, bq, ...
        return True
    if "norm" in name:
        return True
    if "cls_token" in name or "oracle_table" in name:
        return True
    return False


@dataclass
class AdamWState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def init(cls, params: dict[str, Tensor]) -> "AdamWState":
        return cls(
            m={k: np.zeros_like(p.data) for k, p in params.items()},
            v={k: np.zeros_like(p.data) for k, p in params.items()},
        )


def adamw_step(params: dict[str, Tensor], state: AdamWState, lr: float, wd: float) -> None:
    """One decoupled-decay Adam update; reads each parameter's ``.grad``
    (missing grads count as zero, which happens for unused context heads)."""
    if lr < 0:  # 0 is legitimate: warmup starts there (moments still advance)
        raise ValueError("lr must be >= 0")
    if wd < 0:
        raise ValueError("wd must be >= 0")
    state.step += 1
    t = state.step
    bc1 = 1.0 - _BETA1 ** t
    bc2 = 1.0 - _BETA2 ** t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.isfinite(g).all():
            raise NonFiniteError("adamw_step", g.shape, f"gradient of parameter {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + _EPS)
        if not is_decay_exempt(name):
            update = update + wd * p.data
        p.data = p.data - lr * update


@dataclass
class SGDState:
    velocity: dict[str, np.ndarray]

    @classmethod
    def init(cls, params: dict[str, Tensor]) -> "SGDState":
        return cls(velocity={k: np.zeros_like(p.data) for k, p in params.items()})


def sgd_momentum_step(params: dict[str, Tensor], state: SGDState, lr: float, momentum: float = 0.9) -> None:
    if lr < 0:
        raise ValueError("lr must be >= 0")
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.isfinite(g).all():
            raise NonFiniteError("sgd_momentum_step", g.shape, f"gradient of parameter {name!r}")
        vel = state.velocity[name]
        vel *= momentum
        vel += g
        p.data = p.data - lr * vel


def schedules(step: int, total_steps: int, warmup_steps: int, config: TrainConfig) -> tuple[float, float]:
    """(lr, wd) at an optimizer step, 0-indexed over ``total_steps``.

    lr: linear 0 -> base_lr across warmup, then cosine base_lr -> final_lr
    landing exactly on final_lr at the last step.  wd: cosine
    weight_decay_start -> weight_decay_end over the whole run.
    """
    if total_steps < 1 or not (0 <= step < total_steps):
        raise ValueError(f"step {step} outside run of {total_steps} steps")
    if warmup_steps >= total_steps:
        raise ValueError("warmup covers the entire run")
    if warmup_steps > 0 and step < warmup_steps:
        lr = config.base_lr * step / warmup_steps
    else:
        span = max(total_steps - 1 - warmup_steps, 1)
        progress = (step - warmup_steps) / span
        lr = config.final_lr + 0.5 * (config.base_lr - config.final_lr) * (1.0 + math.cos(math.pi * progress))
    wd_span = max(total_steps - 1, 1)
    wd_progress = step / wd_span
    wd = config.weight_decay_end + 0.5 * (
        config.weight_decay_start - config.weight_decay_end
    ) * (1.0 + math.cos(math.pi * wd_progress))
    return lr, wd


def predictions(model: ContextViT, subset: GroupedBatch, batch_size: int) -> np.ndarray:
    """Predicted class of every image over deterministic sequential batches,
    with context inferred from each batch's own groups."""
    if batch_size < 1:
        raise ValueError("eval batch size must be >= 1")
    preds = np.empty(subset.size, dtype=np.int64)
    for start in range(0, subset.size, batch_size):
        idx = np.arange(start, min(start + batch_size, subset.size))
        _, logits = model.forward(subset.take(idx), train=False)
        preds[idx] = np.argmax(logits.data, axis=1)
    return preds


def _snapshot(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    return {k: p.data.copy() for k, p in params.items()}


def _restore(params: dict[str, Tensor], snapshot: dict[str, np.ndarray]) -> None:
    for k, p in params.items():
        p.data = snapshot[k].copy()


@dataclass
class TrainResult:
    model: ContextViT
    best_epoch: int
    best_val_accuracy: float
    metrics_rows: list = field(default_factory=list)  # (epoch, split, metric, value, seed, kind)
    final_train_loss: float = float("nan")
    step_losses: list = field(default_factory=list)  # one entry per optimizer step


def _train_epochs(model: ContextViT, params: dict[str, Tensor], data: DatasetSplit, config: TrainConfig,
                  update, prefix: str, train: bool) -> TrainResult:
    """The epoch loop both trainers share.

    Each seeded batch runs forward and backward, then ``update(lr, wd)``;
    validation follows every epoch and the best validation epoch's
    parameters and ema state (earliest epoch wins ties) are restored at
    the end.  ``prefix`` names the seed streams and the metric rows.
    """
    steps_per_epoch = batches_per_epoch(data.train, config.batch_size, config.sampler)
    total_steps = config.epochs * steps_per_epoch
    warmup_steps = config.warmup_epochs * steps_per_epoch
    kind_name = model.kind.name
    if data.val.size == 0:
        raise ValueError("accuracy over an empty split")

    rows = []
    all_losses: list[float] = []
    best_acc, best_epoch, best_params, best_ema = -1.0, -1, None, None
    step = 0
    epoch_loss = float("nan")
    for epoch in range(config.epochs):
        losses = []
        seed = child_seed(config.seed, prefix + "epoch", epoch)
        for batch in make_batches(data.train, config.batch_size, config.sampler, seed):
            lr, wd = schedules(step, total_steps, warmup_steps, config)
            try:
                with Tape() as tape:
                    _, logits = model.forward(batch, train=train, sample_seed=child_seed(config.seed, prefix + "draw", step))
                    loss = batch_cross_entropy(logits, batch.labels)
                    backward(loss, tape)
                loss_val = float(loss.data)
                if not math.isfinite(loss_val):
                    raise NonFiniteError("batch_cross_entropy", loss.shape, "loss")
                update(lr, wd)
            except NonFiniteError as exc:
                raise FloatingPointError(
                    f"training diverged at epoch {epoch} step {step} (kind {kind_name}, lr {lr:g}): {exc}"
                ) from exc
            losses.append(loss_val)
            all_losses.append(loss_val)
            step += 1
        epoch_loss = float(np.mean(losses))
        val_acc = float(np.mean(predictions(model, data.val, config.batch_size) == data.val.labels))
        rows.append((epoch, "train", prefix + "loss", epoch_loss, config.seed, kind_name))
        rows.append((epoch, "val", prefix + "accuracy", val_acc, config.seed, kind_name))
        if val_acc > best_acc:
            best_acc, best_epoch = val_acc, epoch
            best_params = _snapshot(params)
            best_ema = {k: v.copy() for k, v in model.ema_state.items()}

    _restore(params, best_params)
    model.ema_state = best_ema
    return TrainResult(
        model=model,
        best_epoch=best_epoch,
        best_val_accuracy=best_acc,
        metrics_rows=rows,
        final_train_loss=epoch_loss,
        step_losses=all_losses,
    )


def fine_tune(model: ContextViT, data: DatasetSplit, config: TrainConfig) -> TrainResult:
    """Joint AdamW training of backbone + context + head with per-epoch
    validation and best-validation model selection."""
    params = model.trainable_parameters()
    state = AdamWState.init(params)
    return _train_epochs(model, params, data, config, lambda lr, wd: adamw_step(params, state, lr, wd),
                         prefix="", train=True)


def linear_probe(model: ContextViT, data: DatasetSplit, config: TrainConfig) -> TrainResult:
    """Train a fresh zero-initialized affine head over frozen features with
    SGD and momentum.

    The backbone and context parameters are wrapped as constants, so no
    gradient buffer can even exist for them; context inference still runs
    during every forward.
    """
    frozen = lambda params: {k: Tensor(p.data, requires_grad=False) for k, p in params.items()}
    probe = ContextViT(
        config=model.config,
        kind=model.kind,
        backbone=frozen(model.backbone),
        context=frozen(model.context),
        ema_state={k: v.copy() for k, v in model.ema_state.items()},
    )
    d, k = model.config.dim, model.config.num_classes
    probe.backbone["head.w"] = Tensor(np.zeros((d, k)), requires_grad=True)
    probe.backbone["head.b"] = Tensor(np.zeros(k), requires_grad=True)
    params = {"head.w": probe.backbone["head.w"], "head.b": probe.backbone["head.b"]}
    state = SGDState.init(params)
    return _train_epochs(probe, params, data, config,
                         lambda lr, wd: sgd_momentum_step(params, state, lr, config.momentum),
                         prefix="probe_", train=False)


def write_metrics_csv(rows, path: str) -> None:
    """(epoch, split, metric, value, seed, kind) rows; floats via repr so
    identical runs produce identical bytes."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "split", "metric", "value", "seed", "kind"])
        for epoch, split, metric, value, seed, kind in rows:
            writer.writerow([epoch, split, metric, repr(float(value)), seed, kind])


def write_summary_json(summary: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True, default=float)
        f.write("\n")
