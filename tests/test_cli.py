"""Command-line entry point: artifact layout, exit codes, error hygiene."""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

import contextvit
from contextvit import cli
from contextvit.checkpoint import load_checkpoint, save_checkpoint
from contextvit.cli import main
from contextvit.config import RunConfig, config_hash
from contextvit.context import ContextKind, ContextViT
from contextvit.data import SyntheticShiftSpec, generate_dataset, save_dataset
from contextvit.verify import TOLERANCE


TINY = """
image_h = 16
image_w = 16
patch = 4
dim = 16
depth = 2
heads = 2
num_classes = 2
train_groups = 2
ood_groups = 1
images_per_group = 16
epochs = 1
batch_size = 8
warmup_epochs = 0
eval_batch_size = 8
context_kind = mean_linear_detach
"""


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    """One shared tiny workspace: config file, generated dataset, one training run."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "tiny.cfg"
    cfg_path.write_text(TINY + f"out_dir = {root / 'runs'}\n")
    dataset = root / "data.cvds"
    rc = main(["generate-data", "--config", str(cfg_path), f"dataset_path={dataset}"])
    assert rc == 0
    rc = main(["train", "--config", str(cfg_path), f"dataset_path={dataset}"])
    assert rc == 0
    run_dirs = sorted((root / "runs").iterdir())
    train_dir = next(d for d in run_dirs if (d / "checkpoint.cvck").exists())
    return {"root": root, "cfg": cfg_path, "dataset": dataset, "train_dir": train_dir}


def test_generate_data_writes_dataset_and_manifest(cli_env):
    assert cli_env["dataset"].exists()
    manifest = cli_env["dataset"].with_suffix(".cvds.manifest.json")
    alt = str(cli_env["dataset"]) + ".manifest.json"
    assert manifest.exists() or os.path.exists(alt)


def test_train_writes_all_artifacts(cli_env):
    d = cli_env["train_dir"]
    for name in ("checkpoint.cvck", "metrics.csv", "summary.json", "resolved_config.txt"):
        assert (d / name).exists(), name


def test_resolved_config_records_hash_and_values(cli_env):
    text = (cli_env["train_dir"] / "resolved_config.txt").read_text()
    assert "dim=16" in text
    assert any(line.startswith("# config_hash=") for line in text.splitlines())


def test_train_summary_is_valid_json_with_report(cli_env):
    summary = json.loads((cli_env["train_dir"] / "summary.json").read_text())
    assert summary["command"] == "train"
    assert 0.0 <= summary["best_val_accuracy"] <= 1.0
    assert set(summary["report"]["splits"]) == {"train", "val", "id_test", "ood_test"}


def test_metrics_csv_has_header_and_rows(cli_env):
    lines = (cli_env["train_dir"] / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,split,metric,value,seed,kind"
    assert len(lines) > 1


def test_probe_runs_from_checkpoint(cli_env):
    ckpt = cli_env["train_dir"] / "checkpoint.cvck"
    before = ckpt.read_bytes()
    rc = main(
        [
            "probe",
            "--config",
            str(cli_env["cfg"]),
            f"dataset_path={cli_env['dataset']}",
            f"checkpoint_path={ckpt}",
            "epochs=1",
        ]
    )
    assert rc == 0
    assert ckpt.read_bytes() == before  # probing never touches its source
    probe_dirs = [d for d in (cli_env["root"] / "runs").iterdir() if (d / "probe_checkpoint.cvck").exists()]
    assert probe_dirs
    summary = json.loads((probe_dirs[0] / "summary.json").read_text())
    assert summary["command"] == "probe"


def test_probe_without_checkpoint_path_fails(cli_env, capsys):
    rc = main(["probe", "--config", str(cli_env["cfg"]), f"dataset_path={cli_env['dataset']}"])
    assert rc == 1
    assert "checkpoint_path" in capsys.readouterr().err


def test_distinct_run_dirs_per_invocation(cli_env):
    before = set((cli_env["root"] / "runs").iterdir())
    for _ in range(2):
        assert main(["generate-data", "--config", str(cli_env["cfg"])]) == 0
    after = set((cli_env["root"] / "runs").iterdir())
    assert len(after - before) == 2  # nothing reused, nothing overwritten


def test_malformed_config_exits_one_and_writes_nothing(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"out_dir = {tmp_path / 'runs'}\nbanana = 9\n")
    rc = main(["train", "--config", str(cfg)])
    assert rc == 1
    assert "banana" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()  # config rejected before any artifact


def test_unknown_override_key_exits_one(tmp_path, capsys):
    rc = main(["generate-data", f"out_dir={tmp_path / 'runs'}", "bogus_key=1"])
    assert rc == 1
    assert "bogus_key" in capsys.readouterr().err


def test_bad_train_settings_rejected_before_data_is_read(tmp_path, capsys):
    ghost = tmp_path / "ghost.cvds"  # reading it would fail with its name
    for command in ("train", "probe"):
        rc = main([command, f"out_dir={tmp_path / 'runs'}", f"dataset_path={ghost}", f"checkpoint_path={ghost}",
                   "momentum=1"])
        assert rc == 1
        assert "momentum" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command, setting, key", [
    ("ablate", "ablate_seeds=", "ablate_seeds"), ("ablate", "ablate_seeds=0,x", "ablate_seeds"),
    ("ablate", "ablate_kinds=,", "ablate_kinds"), ("sweep", "sweep_sizes=", "sweep_sizes"),
    ("sweep", "sweep_sizes=1,two", "sweep_sizes"),
    ("ablate", "ablate_seeds=0,0,1", "ablate_seeds"), ("ablate", "ablate_seeds=1,01", "ablate_seeds"),
    ("sweep", "sweep_sizes=4,4", "sweep_sizes"),
])
def test_bad_list_settings_rejected_before_data_is_read(tmp_path, capsys, command, setting, key):
    ghost = tmp_path / "ghost.cvds"  # reading it would fail with its name
    rc = main([command, f"out_dir={tmp_path / 'runs'}", f"dataset_path={ghost}", f"checkpoint_path={ghost}",
               setting])
    assert rc == 1
    err = capsys.readouterr().err
    assert key in err and "ghost" not in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command, setting, key", [
    ("train", "eval_batch_size=0", "eval_batch_size"), ("probe", "eval_batch_size=0", "eval_batch_size"),
    ("export-context", "collect_batches=0", "collect_batches"),
    ("export-context", "collect_batches=1", "collect_batches"),
    ("train", "seed=-1", "seed"), ("train", "seed=18446744073709551616", "seed"),
    ("ablate", "ablate_seeds=-1", "ablate_seeds"),
    ("export-context", "analysis_split=bogus", "analysis_split"), ("sweep", "sweep_sizes=0,4", "sweep_sizes"),
    ("train", "context_kind=bogus", "context_kind"),
    ("train", "context_kind=in_context_patches context_patches=0", "context_patches"),
    ("train", "context_kind=ema ema_lambda=1", "ema_lambda"),
    ("export-context", "context_kind=mean_linear_detach analysis_layer=-1", "analysis_layer"),
    ("export-context", "context_kind=mean_linear_detach analysis_layer=1", "analysis_layer"),
    ("export-context", "context_kind=layerwise_mean_linear_detach depth=2 analysis_layer=2", "analysis_layer"),
    ("export-context", "context_kind=none", "context_kind"),
    ("export-context", "context_kind=in_context_patches", "context_kind"),
])
def test_out_of_range_run_settings_rejected_before_anything_is_read(tmp_path, capsys, command, setting, key):
    """Each value once failed only after a whole fine-tune, or after the
    checkpoint and the data were read, or with a message naming no key."""
    ghost = tmp_path / "ghost.cvds"  # reading it would fail with its name
    rc = main([command, f"out_dir={tmp_path / 'runs'}", f"dataset_path={ghost}", f"checkpoint_path={ghost}",
               *setting.split()])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"'{key}'" in err and "ghost" not in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command, setting, key", [
    ("train", "epochs=0", "epochs"), ("probe", "epochs=0", "epochs"), ("ablate", "epochs=0", "epochs"),
    ("train", "dim=30", "dim"), ("sweep", "heads=0", "heads"), ("probe", "patch=0", "patch"),
    ("generate-data", "train_fraction=1.5", "fractions"),
    ("train", "dataset_path= images_per_group=0", "images_per_group"),
    ("ablate", "ablate_kinds=none,bogus", "ablate_kinds"), ("ablate", "ablate_kinds=none,mean,none", "ablate_kinds"),
    ("sweep", "context_kind=none", "context_kind"), ("sweep", "context_kind=oracle", "context_kind"),
    ("export-context", "context_kind=none", "context_kind"),
    ("probe", "checkpoint_path=", "checkpoint_path"), ("sweep", "checkpoint_path=", "checkpoint_path"),
    ("export-context", "checkpoint_path=", "checkpoint_path"), ("grad-check", "epochs=0", "epochs"),
    ("generate-data", "dataset_path=no-such-directory/data.cvds", "dataset_path"),
    ("generate-data", "dataset_path={tmp}", "dataset_path"),
    ("grad-check", "out_dir={tmp}/a_file", "out_dir"), ("train", "out_dir={tmp}/a_file/runs", "out_dir"),
    ("grad-check", "out_dir=", "out_dir"),
    ("train", "dataset_path={tmp}", "'dataset_path'"), ("ablate", "dataset_path={tmp}", "'dataset_path'"),
    ("sweep", "dataset_path={tmp}", "'dataset_path'"), ("probe", "checkpoint_path={tmp}", "'checkpoint_path'"),
    ("export-context", "checkpoint_path={tmp}", "'checkpoint_path'"),
])
def test_config_a_command_rejects_makes_no_run_dir(tmp_path, capsys, command, setting, key):
    """Each value once failed only after the run directory was made, the
    ablate and sweep kinds only after the data was made or read, and a zero
    ``heads`` or ``patch`` with a ``ZeroDivisionError`` that named no key.
    Every command checks every key, ``grad-check`` included.  A dataset to
    write into a directory that does not exist, or onto a directory, once
    failed only after the data was generated and the run directory made; an
    ``out_dir`` that is empty, or at or under a file, failed only after the
    data was read, with an error that named no key.  A directory given as
    the dataset or checkpoint a command reads failed with ``[Errno 21] Is
    a directory``, naming the path but not the key; the dataset's key is
    checked before the checkpoint is read."""
    ghost = tmp_path / "ghost.cvds"  # reading it would fail with its name
    (tmp_path / "a_file").write_text("")
    rc = main([command, f"out_dir={tmp_path / 'runs'}", f"dataset_path={ghost}", f"checkpoint_path={ghost}",
               "context_kind=mean_linear_detach", *setting.format(tmp=tmp_path).split()])
    assert rc == 1
    err = capsys.readouterr().err
    assert key in err and "ghost" not in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("file_text, overrides, past", [
    ("context_kind = layerwise_mean_linear_detach\ndepth = 2\nanalysis_layer = 2\n", ["depth=3"], "analysis_layer"),
    ("epochs = 1\n", ["warmup_epochs=0"], "warmup_epochs"),
], ids=["layerwise-depth", "warmup"])
def test_config_file_and_overrides_are_checked_together(tmp_path, capsys, file_text, overrides, past):
    """A file that only its overrides make valid gets past the config checks,
    to the read of the (missing) dataset."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(file_text)
    ghost = tmp_path / "ghost.cvds"
    rc = main(["train", "--config", str(cfg), f"out_dir={tmp_path / 'runs'}", f"dataset_path={ghost}", *overrides])
    assert rc == 1
    err = capsys.readouterr().err
    assert "ghost.cvds" in err and past not in err


_READERS = ["train", "probe", "sweep", "export-context"]  # train reads a dataset, the others a checkpoint


@pytest.mark.parametrize("content, command", [
    *((content, command) for content in (None, b"garbage", "label 99") for command in _READERS),
    *(("non-finite", command) for command in _READERS[1:]),
])
def test_an_input_that_fails_to_load_is_named_and_makes_no_run_dir(tmp_path, capsys, command, content):
    """``train`` reads a missing or corrupt dataset, the others a missing or
    corrupt checkpoint (which they read first); each fails before its run
    directory is made.  A dataset file whose one corrupt value is a train
    label out of range once loaded, and ``train`` failed after its run
    directory was made.  A checkpoint of the config's model with one NaN
    weight once loaded too: ``sweep`` failed on a non-finite attention
    score and ``probe`` reported a divergence in training."""
    bad = tmp_path / "bad_input.bin"
    if content == "label 99":  # the dataset agrees with the config's shape and class count
        data = generate_dataset(SyntheticShiftSpec(train_groups=2, ood_groups=1, images_per_group=16), seed=0)
        data.train.labels[0] = 99
        save_dataset(data, str(bad))
    elif content == "non-finite":  # a checkpoint of the config's own model
        cfg = RunConfig(context_kind="mean_linear_detach")
        params = ContextViT.create(cfg.vit_config(), cfg.kind(), seed=0).parameters()
        params["layer0.attn.wq"].data[0, 0] = np.nan
        save_checkpoint(str(bad), params)
    elif content is not None:
        bad.write_bytes(content)
    rc = main([command, f"out_dir={tmp_path / 'runs'}", "context_kind=mean_linear_detach",
               f"dataset_path={bad}" if command == "train" else f"checkpoint_path={bad}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "bad_input.bin" in err
    assert ("label 99" in err) == (content == "label 99" and command == "train")
    assert ("parameter entry 'layer0.attn.wq' holds a non-finite" in err) == (content == "non-finite")
    assert not (tmp_path / "runs").exists()


def test_a_checkpoint_of_another_model_makes_no_run_dir(cli_env, oracle_train_dir, tmp_path, capsys):
    """The model is built from the checkpoint, and checked against the
    command, before the run directory is made: a probe at another width; an
    oracle's export of the held-out split, whose groups its table never
    registered (that once raised an ``UnknownGroupError`` in a made run
    directory); an oracle restored against a dataset with another number of
    training groups; and an oracle checkpoint that still carries the id
    column ``context.oracle_groups``, which the table no longer has."""
    oracle_ckpt = oracle_train_dir / "checkpoint.cvck"
    three_groups = tmp_path / "three_groups.cvds"
    save_dataset(generate_dataset(SyntheticShiftSpec(num_classes=2, train_groups=3, ood_groups=1,
                                                     images_per_group=16), seed=0), str(three_groups))
    stored = load_checkpoint(str(oracle_ckpt))
    with_ids = tmp_path / "with_ids.cvck"
    save_checkpoint(str(with_ids), {"context.oracle_groups": np.arange(2.0), **stored.params}, stored.config_hash)
    for ckpt, dataset, overrides, named in [
        (cli_env["train_dir"] / "checkpoint.cvck", cli_env["dataset"], ["probe", "dim=32"], "checkpoint"),
        (oracle_ckpt, cli_env["dataset"], ["export-context", "context_kind=oracle", "analysis_split=ood_test"],
         "'analysis_split'"),
        (oracle_ckpt, three_groups, ["probe", "context_kind=oracle"], "'context.oracle_table'"),
        (with_ids, cli_env["dataset"], ["probe", "context_kind=oracle"], "'context.oracle_groups'"),
    ]:
        rc = main([overrides[0], "--config", str(cli_env["cfg"]), f"out_dir={tmp_path / 'runs'}",
                   f"dataset_path={dataset}", f"checkpoint_path={ckpt}", *overrides[1:]])
        assert rc == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()


def test_generated_data_with_an_empty_split_is_rejected(tmp_path, capsys):
    """At the default fractions, 4 images a group round to 3 train, 1 val and
    no id_test image; that once failed only after training."""
    rc = main(["train", f"out_dir={tmp_path / 'runs'}", "images_per_group=4", "epochs=1", "warmup_epochs=0",
               "batch_size=8", "dim=16", "depth=1", "heads=2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "'id_test'" in err and "images_per_group=4" in err
    assert not (tmp_path / "runs").exists()


def test_a_dataset_file_of_another_shape_is_named_and_makes_no_run_dir(tmp_path, capsys):
    """A spec that disagrees with the model's keys once failed in the first
    training forward, after the run directory was made, naming neither."""
    dataset = tmp_path / "wide.cvds"
    save_dataset(generate_dataset(SyntheticShiftSpec(image_h=24, image_w=24, images_per_group=16), seed=0),
                 str(dataset))
    rc = main(["train", f"out_dir={tmp_path / 'runs'}", f"dataset_path={dataset}", "epochs=1", "warmup_epochs=0",
               "dim=16", "depth=1", "heads=2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "image_h=24" in err and "image_w=24" in err and "wide.cvds" in err
    assert "channels" not in err and "num_classes" not in err
    assert not (tmp_path / "runs").exists()


def test_a_dataset_file_with_an_empty_split_is_rejected(tmp_path, capsys):
    dataset = tmp_path / "small.cvds"
    save_dataset(generate_dataset(SyntheticShiftSpec(images_per_group=2), seed=0), str(dataset))
    rc = main(["train", f"out_dir={tmp_path / 'runs'}", f"dataset_path={dataset}", "epochs=1", "warmup_epochs=0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "'val'" in err and "small.cvds" in err
    assert not (tmp_path / "runs").exists()


def test_ablate_with_no_seeds_exits_one(cli_env, capsys):
    """An empty seed list once trained nothing and exited 0 with a table of '-' rows."""
    rc = main(["ablate", "--config", str(cli_env["cfg"]), f"dataset_path={cli_env['dataset']}",
               "ablate_kinds=none", "ablate_seeds= , "])
    assert rc == 1
    assert "ablate_seeds" in capsys.readouterr().err


def test_ablate_builds_each_kind_with_the_run_kind_settings(cli_env, tmp_path, monkeypatch):
    """``ablate`` once built every kind with K=256 and lambda=0.99, whatever
    ``context_patches`` and ``ema_lambda`` said, while the config hash
    recorded the run's values.  The spy records each kind and fails the run,
    so nothing trains."""
    built = []

    def spy(vit_config, kind, **kwargs):
        built.append(kind)
        raise RuntimeError("no training here")

    monkeypatch.setattr(ContextViT, "create", spy)
    rc = main(["ablate", "--config", str(cli_env["cfg"]), f"out_dir={tmp_path / 'runs'}",
               f"dataset_path={cli_env['dataset']}", "ablate_kinds=in_context_patches,ema", "ablate_seeds=0",
               "context_patches=8", "ema_lambda=0.5"])
    assert rc == 1  # every row records the spy's error
    assert built == [ContextKind.from_name("in_context_patches", patches=8),
                     ContextKind.from_name("ema", ema_lambda=0.5)]


def test_ablate_and_train_build_the_same_kinds_without_the_kind_settings(cli_env, tmp_path, monkeypatch):
    """With neither ``context_patches`` nor ``ema_lambda`` given, ``ablate``
    builds each kind as ``train`` does: with ``ContextKind``'s defaults.  The
    spy records each kind and fails the run, so nothing trains."""
    built = []

    def spy(vit_config, kind, **kwargs):
        built.append(kind)
        raise RuntimeError("no training here")

    monkeypatch.setattr(ContextViT, "create", spy)
    run = ["--config", str(cli_env["cfg"]), f"out_dir={tmp_path / 'runs'}", f"dataset_path={cli_env['dataset']}"]
    assert main(["ablate", *run, "ablate_kinds=in_context_patches,ema", "ablate_seeds=0"]) == 1
    for name in ("in_context_patches", "ema"):
        assert main(["train", *run, f"context_kind={name}"]) == 1
    assert built == [ContextKind("in_context_patches"), ContextKind("ema")] * 2


def test_missing_config_file_is_named(tmp_path, capsys):
    rc = main(["train", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 1
    assert "absent.cfg" in capsys.readouterr().err


def test_grad_check_plumbing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_gradient_suite", lambda: {"fake_pass": 1e-9, "fake_fail": 0.5})
    rc = main(["grad-check", f"out_dir={tmp_path / 'runs'}"])
    assert rc == 1  # one failing entry
    out = capsys.readouterr().out
    assert "ok" in out and "FAIL" in out and "1/2" in out
    run_dir = next((tmp_path / "runs").iterdir())
    assert not (run_dir / "gradcheck.json").exists()
    blob = json.loads((run_dir / "summary.json").read_text())
    assert blob["command"] == "grad-check"
    assert blob["config_hash"] == config_hash(RunConfig(out_dir=str(tmp_path / "runs")))
    assert blob["tolerance"] == TOLERANCE
    assert blob["results"] == {"fake_pass": 1e-9, "fake_fail": 0.5}


def test_console_script_is_installed(tmp_path):
    """The ``contextvit`` script that pyproject declares starts and runs: its
    entry point is started in a child process the way pip's wrapper starts it,
    and so is an installed script wherever one is on PATH. ``main``'s return
    value must reach the shell as the process status."""
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    entry = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["contextvit"]
    module, function = entry.split(":")
    wrapper = (f"import sys; from {module} import {function}; "
               f"sys.argv[0] = 'contextvit'; sys.exit({function}())")
    src = str(pathlib.Path(contextvit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    launchers = [[sys.executable, "-c", wrapper]]
    installed = shutil.which("contextvit")
    if installed is not None:
        launchers.append([installed])
    absent = tmp_path / "absent.cfg"
    for launcher in launchers:
        helped = subprocess.run(launcher + ["--help"], cwd=tmp_path, env=env, capture_output=True, text=True)
        assert helped.returncode == 0, (launcher, helped.stderr)
        assert all(command in helped.stdout for command in cli._DISPATCH), (launcher, helped.stdout)
        failed = subprocess.run(launcher + ["train", "--config", str(absent)], cwd=tmp_path, env=env,
                                capture_output=True, text=True)
        assert failed.returncode == 1, (launcher, failed.stderr)
        assert "absent.cfg" in failed.stderr, (launcher, failed.stderr)


def test_oracle_model_from_checkpoint_without_its_groups_is_rejected(cli_env, capsys):
    """The shared checkpoint was trained as mean_linear_detach, so it stores no oracle table."""
    rc = main(["probe", "--config", str(cli_env["cfg"]), f"dataset_path={cli_env['dataset']}",
               f"checkpoint_path={cli_env['train_dir'] / 'checkpoint.cvck'}", "context_kind=oracle"])
    assert rc == 1
    assert "'context.oracle_table'" in capsys.readouterr().err


@pytest.fixture(scope="module")
def oracle_train_dir(cli_env):
    """A ``train`` run with the oracle, whose table never registers the held-out groups."""
    runs = cli_env["root"] / "runs"
    before = set(runs.iterdir())
    rc = main(["train", "--config", str(cli_env["cfg"]), f"dataset_path={cli_env['dataset']}",
               "context_kind=oracle"])
    assert rc == 0
    (run_dir,) = set(runs.iterdir()) - before
    return run_dir


def _held_out_split_not_applicable(summary: dict) -> None:
    ood = summary["report"]["splits"]["ood_test"]
    assert ood["applicable"] is False and ood["accuracy"] is None
    assert summary["report"]["splits"]["id_test"]["applicable"] is True
    assert summary["report"]["ood_gap"] is None


def test_oracle_train_exits_zero_and_writes_summary(oracle_train_dir):
    summary = json.loads((oracle_train_dir / "summary.json").read_text())
    assert summary["command"] == "train" and summary["kind"] == "oracle"
    _held_out_split_not_applicable(summary)


def test_oracle_probe_exits_zero_and_writes_summary(cli_env, oracle_train_dir):
    runs = cli_env["root"] / "runs"
    before = set(runs.iterdir())
    rc = main(["probe", "--config", str(cli_env["cfg"]), f"dataset_path={cli_env['dataset']}",
               f"checkpoint_path={oracle_train_dir / 'checkpoint.cvck'}", "context_kind=oracle"])
    assert rc == 0
    (run_dir,) = set(runs.iterdir()) - before
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["command"] == "probe"
    _held_out_split_not_applicable(summary)


def test_oracle_export_context_covers_the_registered_groups(cli_env, oracle_train_dir):
    runs = cli_env["root"] / "runs"
    before = set(runs.iterdir())
    rc = main(["export-context", "--config", str(cli_env["cfg"]), f"dataset_path={cli_env['dataset']}",
               f"checkpoint_path={oracle_train_dir / 'checkpoint.cvck'}", "context_kind=oracle",
               "collect_batches=2"])
    assert rc == 0
    (run_dir,) = set(runs.iterdir()) - before
    groups = {line.split(",")[0] for line in (run_dir / "context_tokens.csv").read_text().splitlines()[1:]}
    assert groups == {"0", "1"}  # id_test's groups; the held-out group 2 has no oracle token
    for name in ("context_tokens.csv", "context_pca.csv"):  # every cell after the group parses as a float
        rows = [line.split(",") for line in (run_dir / name).read_text().splitlines()[1:]]
        assert rows and all(np.isfinite([float(cell) for cell in row[1:]]).all() for row in rows), name


def test_ablate_summary_rows_hold_every_row_field(cli_env):
    rc = main(["ablate", "--config", str(cli_env["cfg"]), f"dataset_path={cli_env['dataset']}",
               "ablate_kinds=none", "ablate_seeds=0"])
    assert rc == 0
    ablate_dir = next(d for d in (cli_env["root"] / "runs").iterdir() if (d / "ablation.csv").exists())
    (row,) = json.loads((ablate_dir / "summary.json").read_text())["rows"]
    assert set(row) == {"kind", "ood_accuracy", "id_accuracy", "seconds", "per_seed_ood", "per_seed_id", "error"}
    assert row["kind"] == "none" and row["error"] is None
    assert row["per_seed_id"] == [row["id_accuracy"]] and row["per_seed_ood"] == [row["ood_accuracy"]]


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


# a file only the named command writes into its run directory
_COMMAND_OF_FILE = {"checkpoint.cvck": "train", "probe_checkpoint.cvck": "probe", "ablation.csv": "ablate",
                    "sweep.csv": "sweep", "context_tokens.csv": "export-context"}


def test_every_summary_is_strict_json(cli_env, oracle_train_dir):
    """Every summary the commands above wrote parses with NaN and Infinity
    refused; the oracle run's held-out split is among them.  Each is headed
    by its command's name and by the hash its ``resolved_config.txt`` logs."""
    paths = sorted((cli_env["root"] / "runs").glob("*/summary.json"))
    assert oracle_train_dir / "summary.json" in paths
    for path in paths:
        summary = json.loads(path.read_text(), parse_constant=_reject_constant)
        (command,) = [command for name, command in _COMMAND_OF_FILE.items() if (path.parent / name).exists()]
        assert summary["command"] == command
        (logged,) = [line.removeprefix("# config_hash=") for line in
                     (path.parent / "resolved_config.txt").read_text().splitlines()
                     if line.startswith("# config_hash=")]
        assert summary["config_hash"] == logged
