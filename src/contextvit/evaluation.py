"""Metrics, the ablation grid, batch-size sensitivity, and token analysis.

Accuracies are computed deterministically over sequential batches, with
context inferred from each evaluation batch's own group partition
(``train.predictions``, which runs several consecutive small batches in one
forward and still infers each batch's contexts on their own).  The
ablation runner trains one model per (kind, seed) from a shared init
seed family and reports per-kind medians; the sweep re-evaluates a
trained amortized model at several evaluation batch sizes, down to
single-image batches.  Context tokens can be collected over many
single-group batches for PCA and a between/within variance ratio.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .context import ContextKind, ContextViT, GroupedBatch, group_partition
from .data import DatasetSplit
from .rng import child_seed, generator
from .train import TrainConfig, fine_tune, predictions
from .vit import ViTConfig

__all__ = [
    "SplitMetrics",
    "MetricsReport",
    "compute_metrics",
    "compute_report",
    "AblationRow",
    "run_ablation",
    "batch_size_sweep",
    "PCAResult",
    "pca_project",
    "SeparationResult",
    "separation_score",
    "collect_context_tokens",
]


@dataclass
class SplitMetrics:
    accuracy: float
    per_group: dict[int, float]
    worst_group: float
    applicable: bool = True  # False: the model cannot infer context for the split's groups; accuracies NaN


@dataclass
class MetricsReport:
    splits: dict[str, SplitMetrics]
    ood_gap: float  # id_test accuracy minus ood_test accuracy; NaN where either is not applicable


def compute_metrics(model: ContextViT, subset: GroupedBatch, eval_batch_size: int) -> SplitMetrics:
    """Accuracy, per-group accuracy, and worst-group accuracy on one split;
    NaN and not applicable where ``model.can_evaluate`` says no (an oracle
    on held-out groups)."""
    if subset.size == 0:
        raise ValueError("metrics over an empty split")
    if not model.can_evaluate(subset):
        return SplitMetrics(accuracy=math.nan, per_group={}, worst_group=math.nan, applicable=False)
    preds = predictions(model, subset, eval_batch_size)
    hits = preds == subset.labels
    per_group = {gid: float(hits[members].mean()) for gid, members in subset.partition.items()}
    return SplitMetrics(
        accuracy=float(hits.mean()),
        per_group=per_group,
        worst_group=min(per_group.values()),
    )


def compute_report(model: ContextViT, data: DatasetSplit, eval_batch_size: int) -> MetricsReport:
    splits = {name: compute_metrics(model, sub, eval_batch_size) for name, sub in data.splits().items()}
    return MetricsReport(
        splits=splits,
        ood_gap=splits["id_test"].accuracy - splits["ood_test"].accuracy,
    )


@dataclass
class AblationRow:
    kind: str
    ood_accuracy: float
    id_accuracy: float
    seconds: float
    per_seed_ood: list = field(default_factory=list)
    per_seed_id: list = field(default_factory=list)
    error: Optional[str] = None


def run_ablation(
    data: DatasetSplit,
    vit_config: ViTConfig,
    train_config: TrainConfig,
    kinds: Sequence[ContextKind],
    seeds: Sequence[int],
    eval_batch_size: Optional[int] = None,
) -> list[AblationRow]:
    """Train every kind, as given, with every seed; one aggregated row per
    kind, named by the kind's name.

    Rows keep the order of ``kinds``; a failed run is recorded in the row's
    error field and the table is still returned in full.
    """
    if not kinds:
        raise ValueError("ablation needs at least one kind")
    if not seeds:
        raise ValueError("ablation needs at least one seed")
    eval_bs = eval_batch_size or train_config.batch_size
    group_ids = sorted(data.train.partition)
    rows = []
    for kind in kinds:
        row = AblationRow(kind=kind.name, ood_accuracy=math.nan, id_accuracy=math.nan, seconds=0.0)
        start = time.perf_counter()
        try:
            for seed in seeds:
                model = ContextViT.create(vit_config, kind, seed=seed, group_ids=group_ids)
                cfg = replace(train_config, seed=seed)
                result = fine_tune(model, data, cfg)
                row.per_seed_id.append(compute_metrics(result.model, data.id_test, eval_bs).accuracy)
                row.per_seed_ood.append(compute_metrics(result.model, data.ood_test, eval_bs).accuracy)
        except Exception as exc:  # record and keep going: the table must come out
            row.error = f"{type(exc).__name__}: {exc}"
        row.seconds = time.perf_counter() - start
        if row.per_seed_id:
            row.id_accuracy = float(np.median(row.per_seed_id))
        if row.per_seed_ood and not all(math.isnan(v) for v in row.per_seed_ood):
            row.ood_accuracy = float(np.median(row.per_seed_ood))
        rows.append(row)
    return rows


def batch_size_sweep(model: ContextViT, subset: GroupedBatch, sizes: Sequence[int]) -> dict[int, float]:
    """OOD accuracy vs evaluation batch size for an amortized-kind model."""
    if not model.kind.amortized:
        raise ValueError(f"batch-size sweep needs an amortized kind, got {model.kind.name!r}")
    out: dict[int, float] = {}
    for size in sizes:
        if size < 1:
            raise ValueError(f"evaluation batch size must be >= 1, got {size}")
        out[int(size)] = compute_metrics(model, subset, int(size)).accuracy
    return out


@dataclass
class PCAResult:
    projections: np.ndarray  # [M, k]
    explained_ratio: np.ndarray  # [k] eigenvalue / total variance
    components: np.ndarray  # [k, d] rows orthonormal
    mean: np.ndarray  # [d]
    zero_variance_components: int  # count of requested axes beyond rank


def pca_project(tokens: np.ndarray, k: int) -> PCAResult:
    """Principal axes of mean-centered tokens via symmetric eigendecomposition.

    Axes are ordered by descending eigenvalue, with each axis's sign fixed
    so its first nonzero loading is positive.
    """
    x = np.asarray(tokens, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("pca needs a [M>=2, d] token matrix")
    m, d = x.shape
    if not (1 <= k <= d):
        raise ValueError(f"component count {k} outside [1, {d}]")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (m - 1)
    evals, evecs = np.linalg.eigh(cov)  # ascending
    evals = np.maximum(evals[::-1], 0.0)
    evecs = evecs[:, ::-1]
    components = np.empty((k, d))
    for i in range(k):
        v = evecs[:, i]
        nz = np.nonzero(v)[0]
        if nz.size and v[nz[0]] < 0:
            v = -v
        components[i] = v
    total = float(evals.sum())
    ratio = evals[:k] / total if total > 0 else np.zeros(k)
    rank = int((evals > max(evals[0], 1.0) * 1e-12).sum()) if evals.size else 0
    return PCAResult(
        projections=centered @ components.T,
        explained_ratio=ratio,
        components=components,
        mean=mean,
        zero_variance_components=max(0, k - rank),
    )


@dataclass
class SeparationResult:
    score: float
    infinite: bool = False  # zero within-group variance, distinct centroids
    degenerate: bool = False  # everything identical: 0/0


def separation_score(tokens: np.ndarray, groups: Sequence[int]) -> SeparationResult:
    """Between-group centroid variance over mean within-group variance."""
    x = np.asarray(tokens, dtype=np.float64)
    groups = np.asarray(groups)
    partition = group_partition(groups)
    if len(partition) < 2:
        raise ValueError("separation score needs at least 2 groups")
    if any(len(members) < 2 for members in partition.values()):
        raise ValueError("separation score needs at least 2 tokens per group")
    centroids = np.stack([x[members].mean(axis=0) for members in partition.values()])
    grand = centroids.mean(axis=0)
    between = float(((centroids - grand) ** 2).sum(axis=1).mean())
    within = float(
        np.mean([((x[members] - x[members].mean(axis=0)) ** 2).sum(axis=1).mean()
                 for members in partition.values()])
    )
    if within == 0.0 and between == 0.0:
        return SeparationResult(score=math.nan, degenerate=True)
    if within == 0.0:
        return SeparationResult(score=math.inf, infinite=True)
    return SeparationResult(score=between / within)


def collect_context_tokens(
    model: ContextViT,
    subset: GroupedBatch,
    batches_per_group: int = 50,
    batch_size: int = 32,
    seed: int = 0,
    layer: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """One inferred token per (batch, group): many single-group batches.

    Returns (tokens [M, d], group_ids [M]) with M = groups * batches_per_group.
    ``layer`` selects which inference head's token to record (nonzero only
    for layerwise kinds).
    """
    if not model.kind.has_token_slot:
        raise ValueError(f"kind {model.kind.name!r} produces no context token")
    tokens, gids = [], []
    for gid, members in subset.partition.items():
        members = np.asarray(members, dtype=np.int64)
        for b in range(batches_per_group):
            rng = generator(child_seed(seed, "collect", gid, b))
            take = min(batch_size, members.size)
            idx = rng.choice(members, size=take, replace=False)
            sink: dict = {}
            model.forward(subset.take(idx), train=False, capture_context_tokens=sink)
            key = (layer, int(gid))
            if key not in sink:
                raise ValueError(f"no context token recorded for layer {layer} (kind {model.kind.name!r})")
            tokens.append(sink[key])
            gids.append(int(gid))
    return np.stack(tokens), np.asarray(gids, dtype=np.int64)
