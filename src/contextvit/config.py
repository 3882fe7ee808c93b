"""Flat key=value run configuration with typed parsing and content hashing.

The keys are the fields of a run's three sections, the model
(``ViTConfig``), the data (``SyntheticShiftSpec``) and the training recipe
(``TrainConfig``), plus the run-level keys ``RunConfig`` declares.  Keys
the sections share (image size, class count) are one key, so the dataset
and model cannot disagree.  A config is checked once, when it is made:
every key, by the run-level checks and each section's own.  Unknown keys
are rejected.  The content hash covers every resolved value except
``seed``: the hash names the experiment, the seed names the repetition.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
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
class RunConfig(ViTConfig, SyntheticShiftSpec, TrainConfig):
    """A run's three sections, whose fields and defaults it inherits, plus
    the run-level keys below; any instance is valid for every command."""

    # context: the kind settings, whose defaults are ``ContextKind``'s
    context_patches: int = ContextKind.patches
    ema_lambda: float = ContextKind.ema_lambda
    # evaluation / analysis
    eval_batch_size: int = 64
    ablate_kinds: str = "none,mean,mean_linear,mean_linear_detach,layerwise_mean_linear_detach"
    ablate_seeds: str = "0,1,2"
    sweep_sizes: str = "1,2,4,8,16,32,64"
    collect_batches: int = 50
    analysis_layer: int = 0
    analysis_split: str = "all"
    # paths
    dataset_path: str = ""
    checkpoint_path: str = ""
    out_dir: str = "runs"

    def __post_init__(self):
        """Check every key: the run-level keys first (by name), then each
        section's own checks, then the kind and the list keys as read."""
        _check_seed("seed", self.seed)
        if self.context_patches < 1:
            raise ValueError(f"config key 'context_patches' must be >= 1, got {self.context_patches}")
        if not 0.0 < self.ema_lambda < 1.0:
            raise ValueError(f"config key 'ema_lambda' must lie in (0, 1), got {self.ema_lambda}")
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
        for section in (ViTConfig, SyntheticShiftSpec, TrainConfig):
            section.__post_init__(self)
        self.kind(), self.kind_list(), self.seed_list(), self.size_list()  # each raises on a bad value

    def _sub_config(self, cls):
        """A plain ``cls`` of this config's values, so that ``asdict`` of it
        (as ``save_dataset`` writes the spec) holds only that section's keys."""
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

    def kind_list(self) -> list[ContextKind]:
        """The kinds ``ablate_kinds`` names, each with this config's kind settings."""
        names = _split_list("ablate_kinds", self.ablate_kinds, str)
        for name in names:
            if name not in CONTEXT_KIND_NAMES:
                raise ValueError(f"config key 'ablate_kinds' must list kinds of {CONTEXT_KIND_NAMES}, got {name!r}")
        return [ContextKind.from_name(name, self.context_patches, self.ema_lambda) for name in names]

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
    ``parse``; blank entries are skipped, and an empty list, a malformed
    entry or an entry read twice (a seed trained twice would count twice
    in every median) is an error that names the key."""
    try:
        values = [parse(item.strip()) for item in text.split(",") if item.strip()]
    except ValueError:
        raise ValueError(f"config key {key!r} expects a comma-separated list of {parse.__name__}, "
                         f"got {text!r}") from None
    if not values:
        raise ValueError(f"config key {key!r} lists no values")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"config key {key!r} lists {value!r} twice, got {text!r}")
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


def parse_config_text(text: str, base: RunConfig | None = None, overrides: Iterable[str] = ()) -> RunConfig:
    """key = value lines (blank lines and #-comments allowed), then CLI-style
    key=value ``overrides``, over ``base`` or the defaults; unknown keys are
    rejected.  The config is made, and so checked, once from all of them."""
    updates = dict(
        _parse_assignment(stripped, f"config line {lineno}")
        for lineno, line in enumerate(text.splitlines(), start=1)
        if (stripped := line.split("#", 1)[0].strip())
    )
    updates.update(_parse_assignment(item, "override") for item in overrides)
    return replace(base or RunConfig(), **updates)


def parse_config_file(path: str, base: RunConfig | None = None, overrides: Iterable[str] = ()) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except FileNotFoundError:
        raise FileNotFoundError(f"config file not found: {path}") from None
    return parse_config_text(text, base, overrides)


def apply_overrides(cfg: RunConfig, overrides: Iterable[str]) -> RunConfig:
    """CLI-style key=value overrides on top of a parsed config."""
    return parse_config_text("", cfg, overrides)


def config_to_text(cfg: RunConfig) -> str:
    """Canonical serialization: sorted keys, one per line."""
    lines = [f"{name}={getattr(cfg, name)}" for name in sorted(_FIELDS)]
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    """sha256 over every key except ``seed`` (seeds vary within an experiment)."""
    lines = [f"{name}={getattr(cfg, name)}" for name in sorted(_FIELDS) if name != "seed"]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
