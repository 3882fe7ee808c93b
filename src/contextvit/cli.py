"""Command-line entry point.

Every invocation builds its flat key=value config once, from the defaults,
the config file and the overrides together, which checks every key.  Then
``main`` runs the subcommand's steps in this order: (1) the config checks
of the paths it will write (``out_dir`` for every command), the command's
own, and that no file it reads is named by a directory; (2) the
checkpoint at ``checkpoint_path``, if it reads one; (3) the data, read
from ``dataset_path`` or generated; (4) the model, fresh or restored,
and the checks of what was read; (5) a fresh run directory,
named by the config hash and a timestamp, that logs the resolved config;
(6) the command itself; (7) ``summary.json``, headed by the command's name
and the config hash.  So an input that fails leaves no run directory.  Each
command declares what it reads: nothing, generated data, data, a fresh
model or a model restored from ``checkpoint_path`` (each model with its
data).  It takes ``(cfg, run_dir, data, model)`` and returns its exit
status and its summary fields, or ``None`` for no summary:

  generate-data   write the synthetic benchmark + manifest
  train           fine-tune a model, save checkpoint + metrics
  probe           linear-probe a checkpoint with a frozen backbone
  ablate          train a grid of context kinds x seeds, emit a table
  sweep           re-evaluate a checkpoint across evaluation batch sizes
  export-context  collect context tokens, PCA + separation analysis
  grad-check      run the finite-difference verification suite, whose
                  errors and tolerance go to summary.json
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import os
import sys
import time
from typing import Callable, NamedTuple, Optional

from .checkpoint import CheckpointData, load_checkpoint, restore_into, save_checkpoint
from .config import RunConfig, apply_overrides, config_hash, config_to_text, parse_config_file
from .context import ContextViT, GroupedBatch
from .data import DatasetSplit, generate_dataset, load_dataset, save_dataset
from .evaluation import (
    batch_size_sweep,
    collect_context_tokens,
    compute_report,
    pca_project,
    run_ablation,
    separation_score,
)
from .train import fine_tune, linear_probe, write_metrics_csv, write_summary_json
from .verify import TOLERANCE, run_gradient_suite

__all__ = ["main"]


def _make_run_dir(cfg: RunConfig) -> str:
    """A new run directory holding ``resolved_config.txt``."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = os.path.join(cfg.out_dir, f"{config_hash(cfg)[:12]}-{stamp}")
    path = base
    suffix = 0
    while os.path.exists(path):  # never overwrite an existing run
        suffix += 1
        path = f"{base}-{suffix}"
    os.makedirs(path)
    with open(os.path.join(path, "resolved_config.txt"), "w", encoding="utf-8") as f:
        f.write(config_to_text(cfg))
        f.write(f"# config_hash={config_hash(cfg)}\n")
    print(f"run dir: {path}")
    return path


def _load_or_generate(cfg: RunConfig, generate: bool) -> DatasetSplit:
    """The dataset at ``dataset_path``, or if none is set (or ``generate``)
    the one of ``cfg``'s spec.  A loaded dataset whose image shape or class
    count disagrees with the model's keys, and a split with no images, over
    which no metric is defined, are rejected."""
    if cfg.dataset_path and not generate:
        data, source = load_dataset(cfg.dataset_path), f"dataset file {cfg.dataset_path}"
        wrong = [f"{key}={getattr(data.spec, key)} (config {getattr(cfg, key)})"
                 for key in ("image_h", "image_w", "channels", "num_classes")
                 if getattr(data.spec, key) != getattr(cfg, key)]
        if wrong:
            raise ValueError(f"{source} disagrees with the config: {', '.join(wrong)}")
    else:
        data, source = generate_dataset(cfg.shift_spec(), cfg.seed), (
            f"images_per_group={cfg.images_per_group} at train_fraction={cfg.train_fraction} "
            f"and val_fraction={cfg.val_fraction}")
    for name, sub in data.splits().items():
        if sub.size == 0:
            raise ValueError(f"dataset split {name!r} has no images ({source})")
    return data


def _build_model(cfg: RunConfig, data: DatasetSplit, ckpt: Optional[CheckpointData]) -> ContextViT:
    """A fresh model of ``cfg``, or one holding ``ckpt``'s parameters and ema
    state.  An oracle table has one row per training group of ``data``, and
    ``restore_into`` rejects a checkpoint whose table has another row count."""
    model = ContextViT.create(cfg.vit_config(), cfg.kind(), seed=cfg.seed, group_ids=sorted(data.train.partition))
    if ckpt is not None:
        restore_into(model.parameters(), ckpt)
        model.ema_state = ckpt.ema_state()
    return model


def _require_out_dir(cfg: RunConfig) -> None:
    """``out_dir`` is set, and it, or the nearest of its parents that exists, is a directory."""
    if not cfg.out_dir:
        raise ValueError("config key 'out_dir' must name the directory that holds the run directories")
    path = os.path.abspath(cfg.out_dir)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ValueError(f"config key 'out_dir' names {cfg.out_dir!r}, but {path!r} is not a directory")


def _require_not_dir(key: str, path: str) -> None:
    """The file config key ``key`` names, to be read or written, is not a directory."""
    if os.path.isdir(path):
        raise ValueError(f"config key {key!r} names {path!r}, which is a directory, not a file")


def _require_dataset_dir(cfg: RunConfig) -> None:
    _require_not_dir("dataset_path", cfg.dataset_path)
    directory = os.path.dirname(cfg.dataset_path)
    if directory and not os.path.isdir(directory):
        raise ValueError(f"config key 'dataset_path' names a file in {directory!r}, which is not a directory")


def _require_amortized_kind(cfg: RunConfig) -> None:
    if not cfg.kind().amortized:
        raise ValueError(f"config key 'context_kind' must name an amortized kind for a batch-size sweep, "
                         f"got {cfg.context_kind!r}")


def _require_token_kind(cfg: RunConfig) -> None:
    if not cfg.kind().has_token_slot:
        raise ValueError(f"config key 'context_kind' must name a kind with a context token to export, "
                         f"got {cfg.context_kind!r}")


def _require_evaluable_split(cfg: RunConfig, data: DatasetSplit, model: ContextViT) -> None:
    if cfg.analysis_split != "all" and not model.can_evaluate(data.splits()[cfg.analysis_split]):
        raise ValueError(f"config key 'analysis_split' names split {cfg.analysis_split!r}, whose groups "
                         f"the {cfg.context_kind} model infers no context for")


def _write_csv(path: str, header: list, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_generate_data(cfg: RunConfig, run_dir: str, data: DatasetSplit, model: None) -> tuple:
    path = cfg.dataset_path or os.path.join(run_dir, "dataset.cvds")
    manifest = save_dataset(data, path)
    print(f"dataset: {path}")
    print(f"manifest: {manifest}")
    for name, sub in data.splits().items():
        print(f"  {name}: {sub.size} images, groups {sorted(sub.partition)}")
    return 0, None


def _cmd_train(cfg: RunConfig, run_dir: str, data: DatasetSplit, model: ContextViT) -> tuple:
    return _write_trained(cfg, run_dir, data, fine_tune(model, data, cfg.train_config()), "")


def _cmd_probe(cfg: RunConfig, run_dir: str, data: DatasetSplit, model: ContextViT) -> tuple:
    result = linear_probe(model, data, cfg.train_config())
    return _write_trained(cfg, run_dir, data, result, "probe_", source_checkpoint=cfg.checkpoint_path)


def _write_trained(cfg: RunConfig, run_dir: str, data: DatasetSplit, result, prefix: str, **extra) -> tuple:
    """Checkpoint, per-epoch metrics and held-out report of a trainer run."""
    ckpt_path = os.path.join(run_dir, f"{prefix}checkpoint.cvck")
    save_checkpoint(ckpt_path, result.model.parameters(), config_hash(cfg), ema_state=result.model.ema_state)
    write_metrics_csv(result.metrics_rows, os.path.join(run_dir, f"{prefix}metrics.csv"))
    report = compute_report(result.model, data, cfg.eval_batch_size)
    print(f"checkpoint: {ckpt_path}")
    print(f"best val accuracy {result.best_val_accuracy:.4f} (epoch {result.best_epoch})")
    print(f"id_test accuracy {report.splits['id_test'].accuracy:.4f}")
    print(f"ood_test accuracy {report.splits['ood_test'].accuracy:.4f} (gap {report.ood_gap:+.4f})")
    return 0, {
        "kind": cfg.context_kind,
        "seed": cfg.seed,
        "best_epoch": result.best_epoch,
        "best_val_accuracy": result.best_val_accuracy,
        "report": dataclasses.asdict(report),
        "checkpoint": ckpt_path,
        **extra,
    }


def _cmd_ablate(cfg: RunConfig, run_dir: str, data: DatasetSplit, model: None) -> tuple:
    seeds = cfg.seed_list()
    rows = run_ablation(data, cfg.vit_config(), cfg.train_config(), kinds=cfg.kind_list(), seeds=seeds,
                        eval_batch_size=cfg.eval_batch_size)
    table_path = os.path.join(run_dir, "ablation.csv")
    _write_csv(
        table_path,
        ["kind", "ood_accuracy", "id_accuracy", "seconds", "error"],
        ([r.kind, repr(r.ood_accuracy), repr(r.id_accuracy), f"{r.seconds:.2f}", r.error or ""] for r in rows),
    )
    print(f"table: {table_path}")
    print(f"{'kind':34s} {'ood':>8s} {'id':>8s} {'secs':>8s}")
    for r in rows:
        ood = f"{r.ood_accuracy:.4f}" if not math.isnan(r.ood_accuracy) else "-"
        idacc = f"{r.id_accuracy:.4f}" if not math.isnan(r.id_accuracy) else "-"
        error = f"  ERROR {r.error}" if r.error else ""
        print(f"{r.kind:34s} {ood:>8s} {idacc:>8s} {r.seconds:8.1f}{error}")
    status = 1 if any(r.error for r in rows) else 0
    return status, {"seeds": seeds, "rows": [dataclasses.asdict(r) for r in rows]}


def _cmd_sweep(cfg: RunConfig, run_dir: str, data: DatasetSplit, model: ContextViT) -> tuple:
    accuracies = batch_size_sweep(model, data.ood_test, cfg.size_list())
    sweep_path = os.path.join(run_dir, "sweep.csv")
    _write_csv(sweep_path, ["eval_batch_size", "ood_accuracy"],
               ([size, repr(accuracies[size])] for size in sorted(accuracies)))
    print(f"sweep: {sweep_path}")
    for size in sorted(accuracies):
        print(f"  batch size {size:4d}: ood accuracy {accuracies[size]:.4f}")
    return 0, {"kind": cfg.context_kind, "checkpoint": cfg.checkpoint_path, "ood_accuracy_by_size": accuracies}


def _cmd_export_context(cfg: RunConfig, run_dir: str, data: DatasetSplit, model: ContextViT) -> tuple:
    if cfg.analysis_split == "all":  # the held-out splits the model can infer context for
        subset = GroupedBatch.concat([sub for sub in (data.id_test, data.ood_test) if model.can_evaluate(sub)])
    else:  # a split the model can infer context for, as _require_evaluable_split checks
        subset = data.splits()[cfg.analysis_split]
    tokens, gids = collect_context_tokens(
        model,
        subset,
        batches_per_group=cfg.collect_batches,
        batch_size=cfg.eval_batch_size,
        seed=cfg.seed,
        layer=cfg.analysis_layer,
    )
    sep = separation_score(tokens, gids)
    pca = pca_project(tokens, k=2)

    tokens_path = os.path.join(run_dir, "context_tokens.csv")
    _write_csv(tokens_path, ["group"] + [f"dim{i}" for i in range(tokens.shape[1])],
               ([gid] + [repr(float(v)) for v in row] for gid, row in zip(gids, tokens)))
    pca_path = os.path.join(run_dir, "context_pca.csv")
    _write_csv(pca_path, ["group", "pc1", "pc2"],
               ([gid, repr(float(row[0])), repr(float(row[1]))] for gid, row in zip(gids, pca.projections)))
    print(f"tokens: {tokens_path}")
    print(f"pca projections: {pca_path}")
    print(f"separation score {sep.score:.3f} (infinite={sep.infinite}, degenerate={sep.degenerate})")
    print(f"2-component explained variance ratio {pca.explained_ratio.sum():.3f}")
    return 0, {
        "kind": cfg.context_kind,
        "layer": cfg.analysis_layer,
        "tokens": tokens_path,
        "pca": pca_path,
        "separation_score": sep.score,
        "separation_flags": {"infinite": sep.infinite, "degenerate": sep.degenerate},
        "pca_explained_ratio": [float(v) for v in pca.explained_ratio],
    }


def _cmd_grad_check(cfg: RunConfig, run_dir: str, data: None, model: None) -> tuple:
    results = run_gradient_suite()
    failures = sum(err >= TOLERANCE for err in results.values())
    for name, err in results.items():
        status = "ok" if err < TOLERANCE else "FAIL"
        print(f"{status:4s} {name:40s} {err:.3e}")
    print(f"{len(results) - failures}/{len(results)} gradient checks within {TOLERANCE:g}")
    return 1 if failures else 0, {"tolerance": TOLERANCE, "results": results}


class _Command(NamedTuple):
    run: Callable  # (cfg, run_dir, data, model) -> (exit status, summary fields or None)
    reads: str  # "nothing", "generated" data, "data", a "fresh" model or a model from a "checkpoint"
    checks: tuple = ()  # (cfg) -> None, before anything is read
    input_checks: tuple = ()  # (cfg, data, model) -> None, before the run directory is made


_DISPATCH = {
    "generate-data": _Command(_cmd_generate_data, "generated", (_require_dataset_dir,)),
    "train": _Command(_cmd_train, "fresh"),
    "probe": _Command(_cmd_probe, "checkpoint"),
    "ablate": _Command(_cmd_ablate, "data"),
    "sweep": _Command(_cmd_sweep, "checkpoint", (_require_amortized_kind,)),
    "export-context": _Command(_cmd_export_context, "checkpoint", (_require_token_kind,),
                               (_require_evaluable_split,)),
    "grad-check": _Command(_cmd_grad_check, "nothing"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="contextvit",
        description="Group-conditioned vision transformer on a synthetic shift benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _DISPATCH:
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a key=value config file")
        p.add_argument("overrides", nargs="*", help="key=value config overrides")
    args = parser.parse_args(argv)
    command = _DISPATCH[args.command]
    try:
        cfg = (parse_config_file(args.config, overrides=args.overrides) if args.config
               else apply_overrides(RunConfig(), args.overrides))
        for check in (_require_out_dir, *command.checks):
            check(cfg)
        if cfg.dataset_path and command.reads in ("data", "fresh", "checkpoint"):
            _require_not_dir("dataset_path", cfg.dataset_path)
        ckpt = None
        if command.reads == "checkpoint":
            if not cfg.checkpoint_path:
                raise ValueError("config key 'checkpoint_path' must name the checkpoint file this command reads")
            _require_not_dir("checkpoint_path", cfg.checkpoint_path)
            ckpt = load_checkpoint(cfg.checkpoint_path)
        data = None if command.reads == "nothing" else _load_or_generate(cfg, command.reads == "generated")
        model = _build_model(cfg, data, ckpt) if command.reads in ("fresh", "checkpoint") else None
        for check in command.input_checks:
            check(cfg, data, model)
        run_dir = _make_run_dir(cfg)
        status, summary = command.run(cfg, run_dir, data, model)
        if summary is not None:
            write_summary_json({"command": args.command, "config_hash": config_hash(cfg), **summary},
                               os.path.join(run_dir, "summary.json"))
        return status
    except BrokenPipeError:
        raise
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
