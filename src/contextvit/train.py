"""Fine-tuning and linear probing with AdamW / SGD and cosine schedules.

Fine-tuning trains backbone, context parameters, and classifier head
jointly; probing freezes everything except a freshly zeroed head and
uses SGD with momentum.  Learning rate warms up linearly then decays on
a cosine; weight decay rises on a cosine from its start to its end
value.  Decay is decoupled and skipped for biases, norm parameters, the
CLS token, and context tokens.  Everything is seeded, so a fixed config
reproduces the exact trajectory.

Fine-tuning computes in float32: ``fine_tune`` casts every parameter of
the model and its ema state once, on entry (``ContextViT.to_float32``), and
every op, gradient and optimizer moment follows that dtype.  Probing and
evaluation run in whatever dtype the model holds, so a freshly created
model (float64, as the gradient checks use) stays float64.

Both optimizer states are flat arenas of their parameters: ``AdamWState``
and ``SGDState`` subclass ``_ParamArena``.  ``init`` copies every parameter
into a slice of one contiguous vector, decayed parameters first, and
rebinds each ``.data`` to a view of its slice; all parameters of one state
share one dtype (a mixed set is a ``TypeError`` naming the parameter).  A
step gathers the gradients into a second vector, checks them all before
anything moves (a parameter with no ``.grad`` raises
``MissingGradientError`` naming it), consumes every ``.grad`` (sets it to
None), runs the update as a few whole-vector ops in place, and never
rebinds ``.data``.  A parameter whose ``.data`` was rebound after
``init`` (a checkpoint restore, a dtype cast) no longer reads its slice,
so the next step raises ``StaleParameterError`` naming it; build a new
state after such a change.
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
    "StaleParameterError",
    "MissingGradientError",
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


class StaleParameterError(RuntimeError):
    """A parameter's ``.data`` was rebound after its optimizer state was
    built: a step would update an arena slice that no forward reads."""

    def __init__(self, name: str):
        super().__init__(f"parameter {name!r} no longer views its optimizer arena (its .data was rebound "
                         "after the optimizer state was built); build a new optimizer state")
        self.name = name


class MissingGradientError(RuntimeError):
    """A trainable parameter has no ``.grad`` at an optimizer step: the
    backward never reached it from the loss (``tensor.backward``)."""

    def __init__(self, name: str):
        super().__init__(f"parameter {name!r} has no gradient: the loss does not depend on it, "
                         "so an optimizer cannot step it")
        self.name = name


class _ParamArena:
    """Every parameter of one optimizer as a view of one contiguous vector:
    the base of both optimizer states.

    ``values`` holds the parameters decayed-first (``is_decay_exempt`` is
    decided here, once: the first ``decayed`` values take weight decay), and
    each parameter's ``.data`` is rebound to its slice.  ``grad`` receives a
    step's gradients and ``scratch`` is the one temporary an update needs.
    """

    def __init__(self, params: dict[str, Tensor]):
        first = next(iter(params), None)
        dtype = params[first].data.dtype if first is not None else np.dtype(np.float64)
        for name, p in params.items():
            if p.data.dtype != dtype:
                raise TypeError(f"parameter {name!r} is {p.data.dtype}, but {first!r} is {dtype}: "
                                "one optimizer state holds one dtype")
        order = sorted(params, key=is_decay_exempt)  # stable: decayed first, each in the dict's order
        self.decayed = sum(params[name].data.size for name in order if not is_decay_exempt(name))
        self._slots, start = {}, 0  # name -> (slice of the vector, shape)
        for name in order:
            data = params[name].data
            self._slots[name] = (slice(start, start + data.size), data.shape)
            start += data.size
        self.values = np.empty(start, dtype)
        self.grad = np.empty_like(self.values)
        self.scratch = np.empty_like(self.values)
        self._entries = []  # (view, gradient's view) of each parameter, in the dict's order
        for name, p in params.items():
            view = self._view(self.values, name)
            view[...] = p.data
            p.data = view
            self._entries.append((view, self._view(self.grad, name)))

    @classmethod
    def init(cls, params: dict[str, Tensor]):
        """A state of this class over ``params``, which it lays out and rebinds."""
        return cls(params)

    def _view(self, vector: np.ndarray, name: str) -> np.ndarray:
        sl, shape = self._slots[name]
        return vector[sl].reshape(shape)

    def views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """A vector laid out like ``values``, as one writable view per parameter."""
        return {name: self._view(vector, name) for name in self._slots}

    def gather(self, params: dict[str, Tensor], caller: str) -> np.ndarray:
        """``grad`` filled from every ``.grad`` and checked, before anything
        moves: a rebound parameter or a missing or non-finite gradient raises.
        Then every ``.grad`` is set to None: no later step can reuse it."""
        if len(params) != len(self._entries):
            raise ValueError(f"{caller}: {len(params)} parameters, but the optimizer state holds "
                             f"{len(self._entries)}")
        for (name, p), (view, grad) in zip(params.items(), self._entries):
            if p.data is not view:
                raise StaleParameterError(name)
            if p.grad is None:
                raise MissingGradientError(name)
            grad[...] = p.grad
        if not np.isfinite(self.grad).all():
            name, p = next((name, p) for (name, p), (_, grad) in zip(params.items(), self._entries)
                           if not np.isfinite(grad).all())
            raise NonFiniteError(caller, p.grad.shape, f"gradient of parameter {name!r}")
        for p in params.values():
            p.grad = None
        return self.grad


class AdamWState(_ParamArena):
    """First and second moments over the arena of the parameters.

    ``init`` copies the parameters into one vector, decayed ones first, and
    rebinds each ``.data`` to a view of its slice; they must share one dtype
    (else ``TypeError`` naming the parameter).  Steps write the parameters in
    place and must find every ``.data`` still that view (else
    ``StaleParameterError``).  ``moments`` holds m and v in the arena's
    layout; ``m`` and ``v`` map each name to a writable view of them, which
    the next step reads.  ``step`` counts the updates made.
    """

    def __init__(self, params: dict[str, Tensor]):
        super().__init__(params)
        self.moments = np.zeros((2, self.values.size), self.values.dtype)
        self.m = self.views(self.moments[0])
        self.v = self.views(self.moments[1])
        self.step = 0


def adamw_step(params: dict[str, Tensor], state: AdamWState, lr: float, wd: float) -> None:
    """One decoupled-decay Adam update; consumes each parameter's ``.grad``.

    The per-parameter formula runs as whole-vector ops in its own order,
    so each value rounds as it would tensor by tensor.  A missing or
    non-finite gradient or a rebound parameter raises before anything moves.
    """
    if lr < 0:  # 0 is legitimate: warmup starts there (moments still advance)
        raise ValueError("lr must be >= 0")
    if wd < 0:
        raise ValueError("wd must be >= 0")
    g = state.gather(params, "adamw_step")
    state.step += 1
    t = state.step
    bc1 = 1.0 - _BETA1 ** t
    bc2 = 1.0 - _BETA2 ** t
    m, v = state.moments
    tmp, p, nd = state.scratch, state.values, state.decayed
    m *= _BETA1
    m += np.multiply(g, 1.0 - _BETA1, out=tmp)
    v *= _BETA2
    v += np.multiply(np.multiply(g, 1.0 - _BETA2, out=tmp), g, out=tmp)
    update = np.divide(m, bc1, out=g)  # the gradient is spent: its buffer takes the update
    update /= np.add(np.sqrt(np.divide(v, bc2, out=tmp), out=tmp), _EPS, out=tmp)
    update[:nd] += np.multiply(p[:nd], wd, out=tmp[:nd])
    p -= np.multiply(update, lr, out=update)


class SGDState(_ParamArena):
    """Momentum velocity over the arena of the parameters, laid out as its
    ``values``.

    ``init`` lays out and rebinds the parameters as ``AdamWState.init``
    does, with the same contract: one dtype, views, no rebinding after it.
    """

    def __init__(self, params: dict[str, Tensor]):
        super().__init__(params)
        self.velocity = np.zeros_like(self.values)


def sgd_momentum_step(params: dict[str, Tensor], state: SGDState, lr: float, momentum: float = 0.9) -> None:
    if lr < 0:
        raise ValueError("lr must be >= 0")
    g = state.gather(params, "sgd_momentum_step")
    vel = state.velocity
    vel *= momentum
    vel += g
    state.values -= np.multiply(vel, lr, out=state.scratch)


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


# Images per evaluation forward: ``predictions`` packs as many whole batches
# as fit.  CPU microseconds per image of ``predictions`` over 256 held-out
# images at evaluation batch sizes 1 and 8, by images per forward (float32
# layerwise_mean_linear_detach model, default ViTConfig, one OpenBLAS 0.3.31
# thread, numpy 2.4.6, x86-64):
#
#   images per forward    1    16   32   64   128  256
#   batch size 1         735  108   94   84   89   127
#   batch size 8         154  122   85   78   83   119
#
# 64 is also the largest training batch, so packing makes no forward larger.
EVAL_IMAGES_PER_FORWARD = 64


def predictions(model: ContextViT, subset: GroupedBatch, batch_size: int) -> np.ndarray:
    """Predicted class of every image over deterministic sequential batches
    of ``batch_size``, with context inferred from each batch's own groups.

    One forward runs as many consecutive batches as fit in
    ``EVAL_IMAGES_PER_FORWARD`` images (one batch when ``batch_size`` is
    that or more), each marked as its own set (``GroupedBatch.sets``), so
    every image sees the context it would see in its own batch.  Only the
    rounding of the shared products differs from one forward per batch.
    """
    if batch_size < 1:
        raise ValueError("eval batch size must be >= 1")
    per_forward = max(1, EVAL_IMAGES_PER_FORWARD // batch_size) * batch_size
    preds = np.empty(subset.size, dtype=np.int64)
    for start in range(0, subset.size, per_forward):
        part = slice(start, min(start + per_forward, subset.size))
        sets = np.arange(part.stop - start) // batch_size
        packed = GroupedBatch(subset.images[part], subset.labels[part], subset.groups[part], sets)
        _, logits = model.forward(packed, train=False)
        preds[part] = np.argmax(logits.data, axis=1)
    return preds


@dataclass
class TrainResult:
    model: ContextViT
    best_epoch: int
    best_val_accuracy: float
    metrics_rows: list = field(default_factory=list)  # (epoch, split, metric, value, seed, kind)
    final_train_loss: float = float("nan")
    step_losses: list = field(default_factory=list)  # one entry per optimizer step


def _train_epochs(model: ContextViT, state: _ParamArena, data: DatasetSplit, config: TrainConfig,
                  update, prefix: str, train: bool) -> TrainResult:
    """The epoch loop both trainers share.

    Each seeded batch runs forward and backward, then ``update(lr, wd)``;
    validation follows every epoch and the best validation epoch's
    parameters (one copy of the state's values) and ema state (earliest
    epoch wins ties) are restored at the end, in place.  ``prefix`` names the seed streams and the metric rows.
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
            best_params = state.values.copy()
            best_ema = {k: v.copy() for k, v in model.ema_state.items()}

    state.values[...] = best_params
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
    validation and best-validation model selection, in float32: the model
    is cast in place before the first step."""
    model.to_float32()
    params = model.trainable_parameters()
    state = AdamWState.init(params)
    return _train_epochs(model, state, data, config, lambda lr, wd: adamw_step(params, state, lr, wd),
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
    dtype = model.backbone["patch_projection"].data.dtype  # the head computes in the backbone's dtype
    probe.backbone["head.w"] = Tensor(np.zeros((d, k), dtype), requires_grad=True)
    probe.backbone["head.b"] = Tensor(np.zeros(k, dtype), requires_grad=True)
    params = {"head.w": probe.backbone["head.w"], "head.b": probe.backbone["head.b"]}
    state = SGDState.init(params)
    return _train_epochs(probe, state, data, config,
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


def _finite_or_null(value):
    """``value`` with every key a string and every non-finite float as None:
    JSON keys are strings, and RFC 8259 JSON has no token for NaN or
    infinity, so they are written as null."""
    if isinstance(value, dict):
        return {str(key): _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        return None
    return value


def write_summary_json(summary: dict, path: str) -> None:
    """``summary`` as strict JSON, keys sorted as strings (so ``10`` before
    ``2``); a NaN or infinite float (a split the model cannot evaluate, a
    failed ablation row) is written as null."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(_finite_or_null(summary), f, indent=2, sort_keys=True, default=float, allow_nan=False)
        f.write("\n")
