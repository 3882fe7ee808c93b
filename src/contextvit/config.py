"""Flat key=value run configuration with typed parsing and content hashing.

One namespace covers model, context, data, training, evaluation, and
path settings; keys shared across components (image size, class count)
are deliberately single-sourced so the dataset and model cannot
disagree.  Unknown keys are rejected.  The content hash covers every
resolved value except ``seed``: the hash names the experiment, the seed
names the repetition.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace

from .context import CONTEXT_KIND_NAMES, ContextKind
from .data import _SPLIT_NAMES, SyntheticShiftSpec
from .train import TrainConfig
from .vit import ViTConfig

__all__ = [
    "RunConfig",
    "parse_config_text",
    "parse_config_file",
    "apply_overrides",
    "config_to_text",
    "config_hash",
]


@dataclass(frozen=True)
class RunConfig:
    # model
    image_h: int = 16
    image_w: int = 16
    channels: int = 3
    patch: int = 4
    dim: int = 32
    depth: int = 4
    heads: int = 4
    mlp_ratio: float = 4.0
    num_classes: int = 8
    # context
    context_kind: str = "none"
    context_patches: int = 256
    ema_lambda: float = 0.99
    # synthetic data
    train_groups: int = 4
    ood_groups: int = 2
    images_per_group: int = 512
    signal_amplitude: float = 0.12
    bias_max: float = 0.40
    contrast_jitter: float = 0.3
    texture_std: float = 0.10
    noise_std: float = 0.05
    train_fraction: float = 0.70
    val_fraction: float = 0.15
    # training
    epochs: int = 30
    batch_size: int = 64
    base_lr: float = 3e-3
    final_lr: float = 1e-5
    warmup_epochs: int = 2
    weight_decay_start: float = 0.04
    weight_decay_end: float = 0.4
    momentum: float = 0.9
    sampler: str = "uniform"
    eval_batch_size: int = 64
    # evaluation / analysis
    ablate_kinds: str = "none,mean,mean_linear,mean_linear_detach,layerwise_mean_linear_detach"
    ablate_seeds: str = "0,1,2"
    sweep_sizes: str = "1,2,4,8,16,32,64"
    collect_batches: int = 50
    analysis_layer: int = 0
    analysis_split: str = "all"
    # bookkeeping
    seed: int = 0
    dataset_path: str = ""
    checkpoint_path: str = ""
    out_dir: str = "runs"

    def __post_init__(self):
        """Reject values of run-level keys that would fail only after a
        checkpoint or the data is read; the list keys are checked where they
        are read (``kind_list``, ``seed_list``, ``size_list``)."""
        _check_seed("seed", self.seed)
        if self.eval_batch_size < 1:
            raise ValueError(f"config key 'eval_batch_size' must be >= 1, got {self.eval_batch_size}")
        if self.collect_batches < 2:  # a separation score needs two tokens per group
            raise ValueError(f"config key 'collect_batches' must be >= 2, got {self.collect_batches}")
        if self.analysis_split not in _SPLIT_NAMES + ("all",):
            raise ValueError(f"config key 'analysis_split' must be a split name {_SPLIT_NAMES} or 'all', "
                             f"got {self.analysis_split!r}")
        if self.context_kind not in CONTEXT_KIND_NAMES:
            raise ValueError(f"config key 'context_kind' must be one of {CONTEXT_KIND_NAMES}, "
                             f"got {self.context_kind!r}")
        # a layerwise kind infers a token before each of its layers, any other kind one at layer 0
        last = max(self.depth, 1) - 1 if ContextKind(self.context_kind).layerwise else 0
        if not 0 <= self.analysis_layer <= last:
            raise ValueError(f"config key 'analysis_layer' must lie in [0, {last}] for context_kind "
                             f"{self.context_kind!r}, got {self.analysis_layer}")

    def _sub_config(self, cls):
        """``cls`` filled from the fields of this config with the same names;
        every field of ``cls`` must exist here."""
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)})

    def vit_config(self) -> ViTConfig:
        return self._sub_config(ViTConfig)

    def shift_spec(self) -> SyntheticShiftSpec:
        return self._sub_config(SyntheticShiftSpec)

    def train_config(self) -> TrainConfig:
        return self._sub_config(TrainConfig)

    def kind(self) -> ContextKind:
        return ContextKind.from_name(
            self.context_kind, patches=self.context_patches, ema_lambda=self.ema_lambda
        )

    def kind_list(self) -> list[str]:
        kinds = _split_list("ablate_kinds", self.ablate_kinds, str)
        for i, kind in enumerate(kinds):
            if kind not in CONTEXT_KIND_NAMES or kind in kinds[:i]:
                raise ValueError(f"config key 'ablate_kinds' must list distinct kinds of {CONTEXT_KIND_NAMES}, "
                                 f"got {kind!r}{' twice' if kind in kinds[:i] else ''}")
        return kinds

    def seed_list(self) -> list[int]:
        seeds = _split_list("ablate_seeds", self.ablate_seeds, int)
        for seed in seeds:
            _check_seed("ablate_seeds", seed)
        return seeds

    def size_list(self) -> list[int]:
        sizes = _split_list("sweep_sizes", self.sweep_sizes, int)
        if min(sizes) < 1:
            raise ValueError(f"config key 'sweep_sizes' entries must be >= 1, got {self.sweep_sizes!r}")
        return sizes


def _check_seed(key: str, seed: int) -> None:
    """A seed keys 64-bit random streams (``rng.child_seed``)."""
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"config key {key!r} must lie in [0, 2**64), got {seed}")


def _split_list(key: str, text: str, parse) -> list:
    """The comma-separated entries of config key ``key``, each read by
    ``parse``; blank entries are skipped, and an empty list or a malformed
    entry is an error that names the key."""
    try:
        values = [parse(item.strip()) for item in text.split(",") if item.strip()]
    except ValueError:
        raise ValueError(f"config key {key!r} expects a comma-separated list of {parse.__name__}, "
                         f"got {text!r}") from None
    if not values:
        raise ValueError(f"config key {key!r} lists no values")
    return values


_FIELDS = {f.name: f.type for f in fields(RunConfig)}
_DEFAULTS = RunConfig()


def _parse_assignment(item: str, where: str) -> tuple:
    """``key=value`` -> (key, value typed as the key's default); ``where``
    names the config line or the override in errors."""
    if "=" not in item:
        raise ValueError(f"{where}: expected key=value, got {item!r}")
    key, raw = (part.strip() for part in item.split("=", 1))
    if key not in _FIELDS:
        raise ValueError(f"{where}: unknown config key {key!r}")
    kind = type(getattr(_DEFAULTS, key))
    try:
        return key, kind(raw) if kind in (int, float) else raw
    except ValueError as exc:
        raise ValueError(f"{where}: config key {key!r} expects {kind.__name__}, got {raw!r}") from exc


def parse_config_text(text: str, base: RunConfig | None = None) -> RunConfig:
    """key = value lines; blank lines and #-comments allowed; unknown keys rejected."""
    updates = dict(
        _parse_assignment(stripped, f"config line {lineno}")
        for lineno, line in enumerate(text.splitlines(), start=1)
        if (stripped := line.split("#", 1)[0].strip())
    )
    return replace(base or RunConfig(), **updates)


def parse_config_file(path: str, base: RunConfig | None = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except FileNotFoundError:
        raise FileNotFoundError(f"config file not found: {path}") from None
    return parse_config_text(text, base)


def apply_overrides(cfg: RunConfig, overrides: list[str]) -> RunConfig:
    """CLI-style key=value overrides on top of a parsed config."""
    return replace(cfg, **dict(_parse_assignment(item, "override") for item in overrides))


def config_to_text(cfg: RunConfig) -> str:
    """Canonical serialization: sorted keys, one per line."""
    lines = [f"{name}={getattr(cfg, name)}" for name in sorted(_FIELDS)]
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    """sha256 over every key except ``seed`` (seeds vary within an experiment)."""
    lines = [f"{name}={getattr(cfg, name)}" for name in sorted(_FIELDS) if name != "seed"]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
