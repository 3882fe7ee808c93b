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

from .context import ContextKind
from .data import SyntheticShiftSpec
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
    ffn_activation: str = "gelu"
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

    def vit_config(self) -> ViTConfig:
        return ViTConfig(
            image_h=self.image_h,
            image_w=self.image_w,
            channels=self.channels,
            patch=self.patch,
            dim=self.dim,
            depth=self.depth,
            heads=self.heads,
            mlp_ratio=self.mlp_ratio,
            num_classes=self.num_classes,
            ffn_activation=self.ffn_activation,
        )

    def shift_spec(self) -> SyntheticShiftSpec:
        return SyntheticShiftSpec(
            num_classes=self.num_classes,
            train_groups=self.train_groups,
            ood_groups=self.ood_groups,
            images_per_group=self.images_per_group,
            image_h=self.image_h,
            image_w=self.image_w,
            channels=self.channels,
            signal_amplitude=self.signal_amplitude,
            bias_max=self.bias_max,
            contrast_jitter=self.contrast_jitter,
            texture_std=self.texture_std,
            noise_std=self.noise_std,
            train_fraction=self.train_fraction,
            val_fraction=self.val_fraction,
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            base_lr=self.base_lr,
            final_lr=self.final_lr,
            warmup_epochs=self.warmup_epochs,
            weight_decay_start=self.weight_decay_start,
            weight_decay_end=self.weight_decay_end,
            momentum=self.momentum,
            seed=self.seed,
            context_kind=self.context_kind,
            sampler=self.sampler,
        )

    def kind(self) -> ContextKind:
        return ContextKind.from_name(
            self.context_kind, patches=self.context_patches, ema_lambda=self.ema_lambda
        )

    def kind_list(self) -> list[str]:
        return [k.strip() for k in self.ablate_kinds.split(",") if k.strip()]

    def seed_list(self) -> list[int]:
        return [int(s) for s in self.ablate_seeds.split(",") if s.strip()]

    def size_list(self) -> list[int]:
        return [int(s) for s in self.sweep_sizes.split(",") if s.strip()]


_FIELDS = {f.name: f.type for f in fields(RunConfig)}
_DEFAULTS = RunConfig()


def _parse_value(key: str, raw: str):
    kind = type(getattr(_DEFAULTS, key))
    raw = raw.strip()
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ValueError(f"config key {key!r} expects {kind.__name__}, got {raw!r}") from exc


def parse_config_text(text: str, base: RunConfig | None = None) -> RunConfig:
    """key = value lines; blank lines and #-comments allowed; unknown keys rejected."""
    cfg = base or RunConfig()
    updates = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {lineno}: expected key=value, got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in _FIELDS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        updates[key] = _parse_value(key, raw)
    return replace(cfg, **updates)


def parse_config_file(path: str, base: RunConfig | None = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except FileNotFoundError:
        raise FileNotFoundError(f"config file not found: {path}") from None
    return parse_config_text(text, base)


def apply_overrides(cfg: RunConfig, overrides: list[str]) -> RunConfig:
    """CLI-style key=value overrides on top of a parsed config."""
    updates = {}
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override must be key=value, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key not in _FIELDS:
            raise ValueError(f"unknown config key {key!r}")
        updates[key] = _parse_value(key, raw)
    return replace(cfg, **updates)


def config_to_text(cfg: RunConfig) -> str:
    """Canonical serialization: sorted keys, one per line."""
    lines = [f"{name}={getattr(cfg, name)}" for name in sorted(_FIELDS)]
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    """sha256 over every key except ``seed`` (seeds vary within an experiment)."""
    lines = [f"{name}={getattr(cfg, name)}" for name in sorted(_FIELDS) if name != "seed"]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
