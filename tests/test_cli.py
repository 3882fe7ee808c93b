"""Command-line entry point: artifact layout, exit codes, error hygiene."""

import json
import os

import pytest

from contextvit.cli import main


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


def test_missing_dataset_file_is_named(tmp_path, capsys):
    ghost = tmp_path / "ghost.cvds"
    rc = main(["train", f"out_dir={tmp_path / 'runs'}", f"dataset_path={ghost}"])
    assert rc == 1
    assert "ghost.cvds" in capsys.readouterr().err


def test_bad_train_settings_rejected_before_data_is_read(tmp_path, capsys):
    ghost = tmp_path / "ghost.cvds"  # reading it would fail with its name
    for command in ("train", "probe"):
        rc = main([command, f"out_dir={tmp_path / 'runs'}", f"dataset_path={ghost}", f"checkpoint_path={ghost}",
                   "momentum=1"])
        assert rc == 1
        assert "momentum" in capsys.readouterr().err


def test_missing_config_file_is_named(tmp_path, capsys):
    rc = main(["train", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 1
    assert "absent.cfg" in capsys.readouterr().err


def test_grad_check_plumbing(tmp_path, capsys, monkeypatch):
    import contextvit.cli as cli_mod

    monkeypatch.setattr(cli_mod, "run_gradient_suite", lambda: {"fake_pass": 1e-9, "fake_fail": 0.5})
    rc = main(["grad-check", f"out_dir={tmp_path / 'runs'}"])
    assert rc == 1  # one failing entry
    out = capsys.readouterr().out
    assert "ok" in out and "FAIL" in out and "1/2" in out
    run_dir = next((tmp_path / "runs").iterdir())
    blob = json.loads((run_dir / "gradcheck.json").read_text())
    assert blob["results"]["fake_fail"] == 0.5


def test_console_script_is_installed():
    import shutil

    assert shutil.which("contextvit") is not None
