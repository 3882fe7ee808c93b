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
from contextvit.context import CONTEXT_KIND_NAMES, ContextKind
from contextvit.data import SyntheticShiftSpec
from contextvit.train import TrainConfig
from contextvit.vit import ViTConfig


def test_kind_settings_defaults_are_contextkinds():
    """``ContextKind``'s field defaults are the one spelling of the kind
    settings' defaults: the config keys read them, and ``from_name`` falls
    back to them.  ``kind_list`` builds every ablation kind with the
    config's kind settings, kept only by the kinds that read them."""
    defaults = {f.name: f.default for f in dataclasses.fields(ContextKind) if f.name != "name"}
    cfg = RunConfig()
    assert {"patches": cfg.context_patches, "ema_lambda": cfg.ema_lambda} == defaults
    for name in CONTEXT_KIND_NAMES:
        assert ContextKind.from_name(name) == ContextKind(name) == RunConfig(context_kind=name).kind()
    cfg = RunConfig(ablate_kinds="in_context_patches,ema,mean", context_patches=8, ema_lambda=0.5)
    assert cfg.kind_list() == [ContextKind("in_context_patches", patches=8), ContextKind("ema", ema_lambda=0.5),
                               ContextKind("mean")]


def test_defaults_are_consistent():
    cfg = RunConfig()
    # conversion helpers must accept the defaults without complaint
    cfg.vit_config()
    cfg.shift_spec()
    cfg.train_config()
    cfg.kind()
    assert cfg.kind_list()[0].name == "none"
    assert cfg.seed_list() == [0, 1, 2]
    assert 1 in cfg.size_list()


def test_parse_round_trip():
    cfg = RunConfig(dim=48, context_kind="mean_linear", base_lr=1e-3)
    again = parse_config_text(config_to_text(cfg))
    assert again == cfg


def test_parse_overrides_only_named_keys():
    cfg = parse_config_text("dim = 64\nepochs=3\n")
    assert cfg.dim == 64 and cfg.epochs == 3
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
    for key, value in (("dim", "8"), ("epochs", "8"), ("context_kind", "mean"), ("bias_max", "8"),
                       ("out_dir", "elsewhere")):
        changed = apply_overrides(base, [f"{key}={value}"])
        assert config_hash(changed) != config_hash(base), key


def test_hash_is_hex_sha256():
    h = config_hash(RunConfig())
    assert len(h) == 64
    int(h, 16)  # parses as hex


def test_frozen_config_rejects_mutation():
    cfg = RunConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.dim = 8


def test_analysis_layer_may_name_every_layerwise_token():
    """A layerwise kind infers a token before each of its ``depth`` layers."""
    for layer in range(3):
        assert RunConfig(context_kind="layerwise_mean_linear_detach", depth=3, analysis_layer=layer)
    with pytest.raises(ValueError, match="'analysis_layer'"):
        RunConfig(context_kind="layerwise_mean_linear_detach", depth=3, analysis_layer=3)


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


@pytest.mark.parametrize("sub_config, key, value", [
    (SyntheticShiftSpec, "signal_amplitude", "nan"), (SyntheticShiftSpec, "bias_max", "inf"),
    (SyntheticShiftSpec, "texture_std", "inf"), (SyntheticShiftSpec, "noise_std", "nan"),
    (ViTConfig, "mlp_ratio", "nan"), (ViTConfig, "mlp_ratio", "inf"), (ViTConfig, "mlp_ratio", "0"),
    (ViTConfig, "mlp_ratio", "-1"), (ViTConfig, "mlp_ratio", "0.01"),
])
def test_data_and_model_configs_reject_values_that_can_only_fail_later(sub_config, key, value):
    """Each value would otherwise surface later as NaN images reported as
    divergence, a failed int conversion or an FFN of width <= 0."""
    with pytest.raises(ValueError, match=key):
        sub_config(**{key: float(value)})
    convert = {SyntheticShiftSpec: RunConfig.shift_spec, ViTConfig: RunConfig.vit_config}[sub_config]
    with pytest.raises(ValueError, match=key):
        convert(apply_overrides(RunConfig(), [f"{key}={value}"]))


@pytest.mark.parametrize("key, value, parse", [
    ("ablate_seeds", "", RunConfig.seed_list), ("ablate_seeds", " , ", RunConfig.seed_list),
    ("ablate_seeds", "0,x", RunConfig.seed_list), ("ablate_seeds", "1.5", RunConfig.seed_list),
    ("sweep_sizes", "", RunConfig.size_list), ("sweep_sizes", "8,,sixteen", RunConfig.size_list),
    ("ablate_kinds", ",", RunConfig.kind_list), ("ablate_seeds", "0,0,1", RunConfig.seed_list),
    ("sweep_sizes", "4,4", RunConfig.size_list),
])
def test_list_keys_reject_empty_lists_and_malformed_entries(key, value, parse):
    with pytest.raises(ValueError, match=key):
        parse(apply_overrides(RunConfig(), [f"{key}={value}"]))


def test_list_keys_skip_blank_entries():
    cfg = apply_overrides(RunConfig(), ["ablate_seeds= 3, ,4,", "sweep_sizes=2", "ablate_kinds=mean, none"])
    assert cfg.seed_list() == [3, 4] and cfg.size_list() == [2]
    assert [k.name for k in cfg.kind_list()] == ["mean", "none"]


@pytest.mark.parametrize("key, value", [
    ("dim", 30), ("heads", 0), ("images_per_group", 0), ("noise_std", float("nan")), ("epochs", 0),
    ("batch_size", 0), ("ablate_kinds", "bogus"), ("ablate_seeds", "0,x"), ("sweep_sizes", "0,4"),
])
def test_a_bad_section_or_list_value_is_rejected_when_the_config_is_made(key, value):
    """Each section's own checks and the list keys' run when a ``RunConfig``
    is made, so no config that exists fails them later in a command."""
    with pytest.raises(ValueError, match=key):
        RunConfig(**{key: value})


@pytest.mark.parametrize("overrides, key", [
    (["context_kind=in_context_patches", "context_patches=0"], "context_patches"),
    (["context_kind=ema", "ema_lambda=1"], "ema_lambda"),
])
def test_kind_settings_are_rejected_by_key_name(overrides, key):
    """Each value once surfaced as the kind's own message, which named no key."""
    with pytest.raises(ValueError, match=f"config key '{key}'"):
        apply_overrides(RunConfig(), overrides)


def test_file_and_overrides_make_one_config():
    """A file that only its overrides make valid is accepted: the config is
    made, and checked, once from both."""
    cfg = parse_config_text("epochs=1\n", overrides=["warmup_epochs=0"])
    assert cfg.epochs == 1 and cfg.warmup_epochs == 0
    with pytest.raises(ValueError, match="warmup_epochs"):
        parse_config_text("epochs=1\n")
