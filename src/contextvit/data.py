"""Synthetic grouped-shift benchmark and batch samplers.

Each image is a class-specific orthogonal spatial pattern on a gray
base, shifted by group-level nuisances: a per-group channel bias, a
per-group contrast multiplier on per-image texture, and pixel noise.
Groups play the role of hospitals/plates: the class signal is shared,
the color statistics are not.  Train/val/id_test come from one set of
groups, ood_test from disjoint held-out groups.

All draws are keyed by (seed, purpose, index) so generation is
deterministic and shardable; per-image texture is keyed by the index
within the group, which makes same-class images identical across groups
once every group-level knob is switched off.

A split is a ``context.GroupedBatch``, the same record a model batch is:
samplers yield index arrays over a split, and ``make_batches`` takes each
batch out of it with ``GroupedBatch.take``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from .checkpoint import _read_exact, _read_u32, _write_u32
from .context import GroupedBatch
from .rng import child_seed, generator

__all__ = [
    "SyntheticShiftSpec",
    "DatasetSplit",
    "class_templates",
    "generate_dataset",
    "make_batches",
    "batches_per_epoch",
    "uniform_sampler",
    "context_sampler",
    "save_dataset",
    "load_dataset",
]

_MAGIC = b"CVDS"
_VERSION = 1
# the order of ``DatasetSplit.splits()`` and of the splits in a dataset file
_SPLIT_NAMES = ("train", "val", "id_test", "ood_test")


@dataclass(frozen=True)
class SyntheticShiftSpec:
    num_classes: int = 8
    train_groups: int = 4
    ood_groups: int = 2
    images_per_group: int = 512
    image_h: int = 16
    image_w: int = 16
    channels: int = 3
    signal_amplitude: float = 0.12
    bias_max: float = 0.40
    contrast_jitter: float = 0.3
    texture_std: float = 0.10
    noise_std: float = 0.05
    train_fraction: float = 0.70
    val_fraction: float = 0.15

    def __post_init__(self):
        for name in ("num_classes", "train_groups", "ood_groups", "images_per_group",
                     "image_h", "image_w", "channels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.num_classes > self.image_h * self.image_w - 1:
            raise ValueError("more classes than available orthogonal patterns")
        if not (0.0 <= self.contrast_jitter < 1.0):
            raise ValueError("contrast_jitter must lie in [0, 1)")
        for name in ("signal_amplitude", "bias_max", "texture_std", "noise_std"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not (0 < self.train_fraction < 1) or not (0 < self.val_fraction < 1):
            raise ValueError("split fractions must lie in (0, 1)")
        if self.train_fraction + self.val_fraction >= 1:
            raise ValueError("train_fraction + val_fraction must leave room for id_test")

    @property
    def train_group_ids(self) -> tuple:
        return tuple(range(self.train_groups))

    @property
    def ood_group_ids(self) -> tuple:
        return tuple(range(self.train_groups, self.train_groups + self.ood_groups))


@dataclass
class DatasetSplit:
    train: GroupedBatch
    val: GroupedBatch
    id_test: GroupedBatch
    ood_test: GroupedBatch
    spec: SyntheticShiftSpec
    seed: int

    def splits(self) -> dict[str, GroupedBatch]:
        return {name: getattr(self, name) for name in _SPLIT_NAMES}


# Spatially constant share of each template's energy.  This is the part a
# per-group channel bias can mimic, which is what keeps single images
# ambiguous about the class while batches of group-mates are not.  The share
# is kept small so the cosine part (which identifies the class pair) stays
# easy to learn while the pair member hinges on the ambiguous constant.
_TEMPLATE_DC = 0.25


def class_templates(spec: SyntheticShiftSpec) -> np.ndarray:
    """[K, H, W] unit-RMS class patterns with a deliberate bias-shaped part.

    Classes come in pairs: both members share one zero-mean cosine pattern
    and differ only in the sign of a spatially constant offset.  A single
    image therefore pins down the pair but not the member — its constant
    component could equally come from the group's channel bias.  Averaging
    images that share a group cancels the class offsets (labels are
    balanced) and exposes the group bias, so group-level context carries
    exactly the information a lone image is missing.
    """
    h, w, k = spec.image_h, spec.image_w, spec.num_classes
    rows = np.arange(h) + 0.5
    cols = np.arange(w) + 0.5
    # one cosine mode per class pair, enumerated by increasing frequency
    freqs = sorted(
        ((u, v) for u in range(h) for v in range(w) if (u, v) != (0, 0)),
        key=lambda uv: (uv[0] + uv[1], uv[0], uv[1]),
    )[: (k + 1) // 2]
    scale = np.sqrt(1.0 - _TEMPLATE_DC ** 2)  # keeps overall RMS at 1
    out = np.empty((k, h, w))
    for i in range(k):
        u, v = freqs[i // 2]
        pattern = np.cos(np.pi * u * rows / h)[:, None] * np.cos(np.pi * v * cols / w)[None, :]
        pattern /= np.sqrt((pattern ** 2).mean())
        sign = 1.0 if i % 2 == 0 else -1.0
        out[i] = scale * pattern + sign * _TEMPLATE_DC
    return out


def _group_shift(spec: SyntheticShiftSpec, seed: int, group: int) -> tuple[np.ndarray, float]:
    """Deterministic (channel bias vector, contrast multiplier) for a group."""
    bias_rng = generator(child_seed(seed, "bias", group))
    bias = bias_rng.uniform(-spec.bias_max, spec.bias_max, size=spec.channels)
    contrast_rng = generator(child_seed(seed, "contrast", group))
    contrast = contrast_rng.uniform(1.0 - spec.contrast_jitter, 1.0 + spec.contrast_jitter)
    return bias, float(contrast)


def _generate_group(spec: SyntheticShiftSpec, seed: int, group: int, templates: np.ndarray) -> GroupedBatch:
    n = spec.images_per_group
    h, w, c = spec.image_h, spec.image_w, spec.channels
    labels = np.arange(n) % spec.num_classes
    bias, contrast = _group_shift(spec, seed, group)

    images = np.empty((n, h, w, c))
    for i in range(n):
        # texture is keyed by (group, image): reusing textures across groups
        # would let a classifier memorize texture-label pairs and carry them
        # to held-out groups, silently defeating the distribution shift
        texture = generator(child_seed(seed, "texture", group, i)).normal(0.0, 1.0, size=(h, w, c))
        noise = generator(child_seed(seed, "noise", group, i)).normal(0.0, 1.0, size=(h, w, c))
        img = (
            0.5
            + spec.signal_amplitude * templates[labels[i]][:, :, None]
            + bias[None, None, :]
            + contrast * spec.texture_std * texture
            + spec.noise_std * noise
        )
        images[i] = np.clip(img, 0.0, 1.0)
    return GroupedBatch(images, labels, np.full(n, group, dtype=np.int64))


def generate_dataset(spec: SyntheticShiftSpec, seed: int) -> DatasetSplit:
    """Deterministic synthetic benchmark split by disjoint group sets."""
    templates = class_templates(spec)

    train_parts, val_parts, test_parts = [], [], []
    for g in spec.train_group_ids:
        sub = _generate_group(spec, seed, g, templates)
        order = generator(child_seed(seed, "split", g)).permutation(sub.size)
        n_train = int(round(spec.train_fraction * sub.size))
        n_val = int(round(spec.val_fraction * sub.size))
        train_parts.append(sub.take(order[:n_train]))
        val_parts.append(sub.take(order[n_train:n_train + n_val]))
        test_parts.append(sub.take(order[n_train + n_val:]))
    ood_parts = [_generate_group(spec, seed, g, templates) for g in spec.ood_group_ids]
    return DatasetSplit(
        train=GroupedBatch.concat(train_parts),
        val=GroupedBatch.concat(val_parts),
        id_test=GroupedBatch.concat(test_parts),
        ood_test=GroupedBatch.concat(ood_parts),
        spec=spec,
        seed=seed,
    )


def uniform_sampler(subset: GroupedBatch, batch_size: int, seed: int) -> Iterator[np.ndarray]:
    """Seeded shuffle of all indices, chunked; the short final batch is kept."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = generator(child_seed(seed, "uniform")).permutation(subset.size)
    for start in range(0, subset.size, batch_size):
        yield order[start:start + batch_size]


def context_sampler(subset: GroupedBatch, batch_size: int, seed: int) -> Iterator[np.ndarray]:
    """Single-group batches, groups interleaved in seeded round-robin order;
    one epoch covers every image exactly once."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    rng = generator(child_seed(seed, "context_sampler"))
    gids = list(subset.partition)
    rng.shuffle(gids)
    queues = []
    for g in gids:
        members = np.asarray(subset.partition[g], dtype=np.int64)
        members = members[rng.permutation(members.size)]
        chunks = [members[s:s + batch_size] for s in range(0, members.size, batch_size)]
        queues.append(chunks)
    rounds = max((len(q) for q in queues), default=0)
    for round_idx in range(rounds):
        for q in queues:
            if round_idx < len(q):
                yield q[round_idx]


_SAMPLERS = {"uniform": uniform_sampler, "context": context_sampler}


def _sampler(name: str):
    if name not in _SAMPLERS:
        raise ValueError(f"unknown sampler {name!r}; expected one of {sorted(_SAMPLERS)}")
    return _SAMPLERS[name]


def make_batches(subset: GroupedBatch, batch_size: int, sampler: str, seed: int) -> Iterator[GroupedBatch]:
    """GroupedBatch stream over one subset using the named sampler."""
    for idx in _sampler(sampler)(subset, batch_size, seed):
        yield subset.take(idx)


def batches_per_epoch(subset: GroupedBatch, batch_size: int, sampler: str) -> int:
    """Exact batch count one epoch of ``make_batches`` will yield, counted
    from the sampler itself (the count does not depend on the seed)."""
    return sum(1 for _ in _sampler(sampler)(subset, batch_size, 0))


def save_dataset(split: DatasetSplit, path: str) -> str:
    """Single self-describing binary file plus a JSON manifest alongside.

    Layout: magic, u32 version, u32 header length, JSON header, then per
    split (train, val, id_test, ood_test): images, labels, groups as
    little-endian float64/int64 in C order.
    """
    splits = split.splits()
    header = {
        "spec": asdict(split.spec),
        "seed": split.seed,
        "splits": {name: sub.size for name, sub in splits.items()},
        "image_shape": [split.spec.image_h, split.spec.image_w, split.spec.channels],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        _write_u32(f, _VERSION)
        _write_u32(f, len(header_bytes))
        f.write(header_bytes)
        for sub in splits.values():
            f.write(np.ascontiguousarray(sub.images, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(sub.labels, dtype="<i8").tobytes())
            f.write(np.ascontiguousarray(sub.groups, dtype="<i8").tobytes())

    manifest_path = path + ".manifest.json"
    with open(path, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    manifest = {
        "file": path,
        "sha256": digest,
        "seed": split.seed,
        "spec": asdict(split.spec),
        "splits": {
            name: {"size": sub.size, "group_ids": sorted(sub.partition)}
            for name, sub in splits.items()
        },
    }
    with open(manifest_path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest_path


def load_dataset(path: str) -> DatasetSplit:
    """Read a ``save_dataset`` file; a truncated or corrupt one raises a
    ``ValueError`` that names the part that is wrong.  So does a label
    outside ``[0, num_classes)``, a pixel that is not finite, and a group id
    that is not one of the spec's ids for its split (``ood_group_ids`` for
    ood_test, ``train_group_ids`` for the others)."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != _MAGIC:
            raise ValueError(f"not a dataset file (bad magic {magic!r}) at {path}")
        version = _read_u32(f, "dataset version")
        if version != _VERSION:
            raise ValueError(f"dataset format version {version} unsupported (expected {_VERSION}) at {path}")
        header_len = _read_u32(f, "dataset header length")
        raw = _read_exact(f, header_len, "dataset header")
        try:
            header = json.loads(raw.decode("utf-8"))
            spec = SyntheticShiftSpec(**header["spec"])
            seed = int(header["seed"])
            sizes = {name: int(header["splits"][name]) for name in _SPLIT_NAMES}
            h, w, c = header["image_shape"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"corrupt dataset header in {path}: {exc!r}") from None
        if (h, w, c) != (spec.image_h, spec.image_w, spec.channels):
            raise ValueError(f"corrupt dataset header in {path}: image shape {[h, w, c]} disagrees with the spec")
        subsets = {}
        for name in _SPLIT_NAMES:
            n = sizes[name]
            what = f"dataset split {name!r}"
            images = np.frombuffer(_read_exact(f, n * h * w * c * 8, what + " images"), dtype="<f8")
            labels = np.frombuffer(_read_exact(f, n * 8, what + " labels"), dtype="<i8")
            groups = np.frombuffer(_read_exact(f, n * 8, what + " groups"), dtype="<i8")
            if not np.isfinite(images).all():
                raise ValueError(f"{what} in {path} has a pixel that is not finite")
            bad = labels[(labels < 0) | (labels >= spec.num_classes)]
            if bad.size:
                raise ValueError(f"{what} in {path} has label {bad[0]}, outside [0, {spec.num_classes})")
            group_ids = spec.ood_group_ids if name == "ood_test" else spec.train_group_ids
            bad = groups[~np.isin(groups, group_ids)]
            if bad.size:
                raise ValueError(f"{what} in {path} has group id {bad[0]}, not one of the spec's {list(group_ids)}")
            subsets[name] = GroupedBatch(images.reshape(n, h, w, c).copy(), labels.copy(), groups.copy())
        trailing = f.read(1)
        if trailing:
            raise ValueError(f"trailing bytes after the last split in {path}; file corrupt")
    return DatasetSplit(seed=seed, spec=spec, **subsets)
