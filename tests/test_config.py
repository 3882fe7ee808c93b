"""Flat key=value configuration: parsing, overrides, canonical text, hashing."""

import dataclasses

import pytest

from contextvit.config import (
    RunConfig,
    apply_overrides,
    config_hash,
    config_to_text,
    parse_config_file,
    parse_config_text,
)
from contextvit.data import SyntheticShiftSpec
from contextvit.train import TrainConfig
from contextvit.vit import ViTConfig


def test_defaults_are_consistent():
    cfg = RunConfig()
    # conversion helpers must accept the defaults without complaint
    cfg.vit_config()
    cfg.shift_spec()
    cfg.train_config()
    cfg.kind()
    assert cfg.kind_list()[0] == "none"
    assert cfg.seed_list() == [0, 1, 2]
    assert 1 in cfg.size_list()


def test_parse_round_trip():
    cfg = RunConfig(dim=48, context_kind="mean_linear", base_lr=1e-3)
    again = parse_config_text(config_to_text(cfg))
    assert again == cfg


def test_parse_overrides_only_named_keys():
    cfg = parse_config_text("dim = 64\nepochs=2\n")
    assert cfg.dim == 64 and cfg.epochs == 2
    assert cfg.patch == RunConfig().patch  # untouched keys keep defaults


def test_parse_comments_and_blank_lines():
    text = "\n# full-line comment\n  dim = 24  # trailing comment\n\nheads=3\n"
    cfg = parse_config_text(text)
    assert cfg.dim == 24 and cfg.heads == 3


def test_unknown_key_rejected_with_line_number():
    with pytest.raises(ValueError, match=r"line 2.*banana"):
        parse_config_text("dim=8\nbanana = 1\n")


def test_missing_equals_rejected_with_line_number():
    with pytest.raises(ValueError, match="line 1"):
        parse_config_text("just some words\n")


def test_typed_value_errors_name_key_and_type():
    with pytest.raises(ValueError, match="'dim' expects int"):
        parse_config_text("dim = twelve\n")
    with pytest.raises(ValueError, match="'base_lr' expects float"):
        parse_config_text("base_lr = fast\n")


def test_parse_base_config_layering():
    base = parse_config_text("dim=48\nheads=6\n")
    top = parse_config_text("heads=8\n", base=base)
    assert top.dim == 48 and top.heads == 8


def test_parse_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("epochs=7\nseed=3\n")
    cfg = parse_config_file(str(p))
    assert cfg.epochs == 7 and cfg.seed == 3


def test_parse_config_file_missing_names_path(tmp_path):
    missing = str(tmp_path / "nope.cfg")
    with pytest.raises(FileNotFoundError, match="nope.cfg"):
        parse_config_file(missing)


def test_apply_overrides():
    cfg = apply_overrides(RunConfig(), ["dim=40", "context_kind=mean"])
    assert cfg.dim == 40 and cfg.context_kind == "mean"
    with pytest.raises(ValueError, match="key=value"):
        apply_overrides(cfg, ["dim"])
    with pytest.raises(ValueError, match="unknown config key"):
        apply_overrides(cfg, ["banan=1"])
    with pytest.raises(ValueError, match="expects int"):
        apply_overrides(cfg, ["dim=tall"])


def test_config_to_text_sorted_and_stable():
    text = config_to_text(RunConfig())
    keys = [line.split("=", 1)[0] for line in text.strip().splitlines()]
    assert keys == sorted(keys)
    assert text == config_to_text(RunConfig())
    assert len(keys) == len(dataclasses.fields(RunConfig))


def test_hash_ignores_seed_but_nothing_else():
    base = RunConfig()
    assert config_hash(base) == config_hash(dataclasses.replace(base, seed=999))
    for field in ("dim", "epochs", "context_kind", "bias_max", "out_dir"):
        changed = apply_overrides(base, [f"{field}={'7' if field not in ('context_kind', 'out_dir') else 'mean' if field == 'context_kind' else 'elsewhere'}"])
        assert config_hash(changed) != config_hash(base), field


def test_hash_is_hex_sha256():
    h = config_hash(RunConfig())
    assert len(h) == 64
    int(h, 16)  # parses as hex


def test_frozen_config_rejects_mutation():
    cfg = RunConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.dim = 8


def test_conversions_carry_values_through():
    cfg = RunConfig(dim=24, depth=3, num_classes=5, images_per_group=32, epochs=4, context_kind="mean")
    assert cfg.vit_config().dim == 24
    assert cfg.vit_config().depth == 3
    assert cfg.shift_spec().num_classes == 5
    assert cfg.shift_spec().images_per_group == 32
    assert cfg.train_config().epochs == 4
    assert cfg.train_config().context_kind == "mean"
    assert cfg.kind().name == "mean"


_LR, _WD = "learning rates", "weight decays"


@pytest.mark.parametrize("key, value, what", [
    ("base_lr", "nan", _LR), ("base_lr", "0", _LR), ("final_lr", "-1e-5", _LR), ("final_lr", "inf", _LR),
    ("weight_decay_start", "-0.1", _WD), ("weight_decay_start", "nan", _WD), ("weight_decay_end", "inf", _WD),
    ("momentum", "1.0", "momentum"), ("momentum", "-0.1", "momentum"), ("momentum", "nan", "momentum"),
])
def test_train_config_rejects_values_that_can_only_fail_later(key, value, what):
    with pytest.raises(ValueError, match=what):
        TrainConfig(**{key: float(value)})
    with pytest.raises(ValueError, match=what):
        apply_overrides(RunConfig(), [f"{key}={value}"]).train_config()


@pytest.mark.parametrize("sub_config", [ViTConfig, SyntheticShiftSpec, TrainConfig])
def test_sub_config_fields_are_run_config_fields_with_same_defaults(sub_config):
    run_defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    for f in dataclasses.fields(sub_config):
        assert f.name in run_defaults, f.name
        assert run_defaults[f.name] == f.default, f.name
