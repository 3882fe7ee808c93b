"""Command-line entry point.

Every invocation resolves a flat key=value config (file plus overrides),
creates a fresh run directory named by the config hash and a timestamp,
logs the resolved config there, and dispatches to one subcommand:

  generate-data   write the synthetic benchmark + manifest
  train           fine-tune a model, save checkpoint + metrics
  probe           linear-probe a checkpoint with a frozen backbone
  ablate          train a grid of context kinds x seeds, emit a table
  sweep           re-evaluate a checkpoint across evaluation batch sizes
  export-context  collect context tokens, PCA + separation analysis
  grad-check      run the finite-difference verification suite
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import time
from typing import Optional

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

_COMMANDS = ("generate-data", "train", "probe", "ablate", "sweep", "export-context", "grad-check")


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        cfg = parse_config_file(args.config, cfg)
    return apply_overrides(cfg, args.overrides)


def _make_run_dir(cfg: RunConfig) -> str:
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
    return path


def _load_or_generate(cfg: RunConfig) -> DatasetSplit:
    if cfg.dataset_path:
        return load_dataset(cfg.dataset_path)
    return generate_dataset(cfg.shift_spec(), cfg.seed)


def _build_model(cfg: RunConfig, data: Optional[DatasetSplit]) -> ContextViT:
    kind = cfg.kind()
    group_ids = None
    if kind.base == "oracle":
        if data is None:
            raise ValueError("oracle kind needs a dataset to enumerate training groups")
        group_ids = sorted(data.train.partition)
    return ContextViT.create(cfg.vit_config(), kind, seed=cfg.seed, group_ids=group_ids)


def _model_from_checkpoint(cfg: RunConfig, ckpt: CheckpointData) -> ContextViT:
    kind = cfg.kind()
    group_ids = None
    if kind.base == "oracle":
        stored = ckpt.params.get("context.oracle_groups")
        if stored is None:
            raise ValueError("checkpoint is missing parameter 'context.oracle_groups'")
        group_ids = [int(g) for g in stored]
    model = ContextViT.create(cfg.vit_config(), kind, seed=cfg.seed, group_ids=group_ids)
    restore_into(model.parameters(), ckpt)
    model.ema_state = ckpt.ema_state()
    return model


def _require_checkpoint(cfg: RunConfig) -> CheckpointData:
    if not cfg.checkpoint_path:
        raise ValueError("this command requires checkpoint_path=<file> in the config or overrides")
    return load_checkpoint(cfg.checkpoint_path)


def _write_csv(path: str, header: list, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _report_dict(report) -> dict:
    return {
        "ood_gap": report.ood_gap,
        "splits": {
            name: {
                "accuracy": m.accuracy,
                "worst_group": m.worst_group,
                "per_group": {str(k): v for k, v in m.per_group.items()},
            }
            for name, m in report.splits.items()
        },
    }


def _cmd_generate_data(cfg: RunConfig, run_dir: str) -> int:
    data = generate_dataset(cfg.shift_spec(), cfg.seed)
    path = cfg.dataset_path or os.path.join(run_dir, "dataset.cvds")
    manifest = save_dataset(data, path)
    print(f"dataset: {path}")
    print(f"manifest: {manifest}")
    for name, sub in data.splits().items():
        print(f"  {name}: {sub.size} images, groups {sorted(sub.partition)}")
    return 0


def _cmd_train(cfg: RunConfig, run_dir: str) -> int:
    train_config = cfg.train_config()  # rejects bad settings before the data is made
    data = _load_or_generate(cfg)
    result = fine_tune(_build_model(cfg, data), data, train_config)
    return _write_trained(cfg, run_dir, data, result, "train", "")


def _cmd_probe(cfg: RunConfig, run_dir: str) -> int:
    train_config = cfg.train_config()
    ckpt = _require_checkpoint(cfg)
    data = _load_or_generate(cfg)
    result = linear_probe(_model_from_checkpoint(cfg, ckpt), data, train_config)
    return _write_trained(cfg, run_dir, data, result, "probe", "probe_",
                          source_checkpoint=cfg.checkpoint_path)


def _write_trained(cfg: RunConfig, run_dir: str, data: DatasetSplit, result, command: str, prefix: str,
                   **extra) -> int:
    """Checkpoint, per-epoch metrics, held-out report and summary of a trainer run."""
    ckpt_path = os.path.join(run_dir, f"{prefix}checkpoint.cvck")
    save_checkpoint(ckpt_path, result.model.parameters(), config_hash(cfg), ema_state=result.model.ema_state)
    write_metrics_csv(result.metrics_rows, os.path.join(run_dir, f"{prefix}metrics.csv"))
    report = compute_report(result.model, data, cfg.eval_batch_size)
    write_summary_json(
        {
            "command": command,
            "config_hash": config_hash(cfg),
            "kind": cfg.context_kind,
            "seed": cfg.seed,
            "best_epoch": result.best_epoch,
            "best_val_accuracy": result.best_val_accuracy,
            "report": _report_dict(report),
            "checkpoint": ckpt_path,
            **extra,
        },
        os.path.join(run_dir, "summary.json"),
    )
    print(f"checkpoint: {ckpt_path}")
    print(f"best val accuracy {result.best_val_accuracy:.4f} (epoch {result.best_epoch})")
    print(f"id_test accuracy {report.splits['id_test'].accuracy:.4f}")
    print(f"ood_test accuracy {report.splits['ood_test'].accuracy:.4f} (gap {report.ood_gap:+.4f})")
    return 0


def _cmd_ablate(cfg: RunConfig, run_dir: str) -> int:
    data = _load_or_generate(cfg)
    rows = run_ablation(
        data,
        cfg.vit_config(),
        cfg.train_config(),
        kinds=cfg.kind_list(),
        seeds=cfg.seed_list(),
        eval_batch_size=cfg.eval_batch_size,
    )
    table_path = os.path.join(run_dir, "ablation.csv")
    _write_csv(
        table_path,
        ["kind", "ood_accuracy", "id_accuracy", "seconds", "error"],
        ([r.kind, repr(r.ood_accuracy), repr(r.id_accuracy), f"{r.seconds:.2f}", r.error or ""] for r in rows),
    )
    write_summary_json(
        {
            "command": "ablate",
            "config_hash": config_hash(cfg),
            "seeds": cfg.seed_list(),
            "rows": [
                {
                    "kind": r.kind,
                    "ood_accuracy": r.ood_accuracy,
                    "id_accuracy": r.id_accuracy,
                    "seconds": r.seconds,
                    "per_seed_ood": r.per_seed_ood,
                    "per_seed_id": r.per_seed_id,
                    "error": r.error,
                }
                for r in rows
            ],
        },
        os.path.join(run_dir, "summary.json"),
    )
    print(f"table: {table_path}")
    print(f"{'kind':34s} {'ood':>8s} {'id':>8s} {'secs':>8s}")
    failed = False
    for r in rows:
        ood = f"{r.ood_accuracy:.4f}" if not math.isnan(r.ood_accuracy) else "-"
        idacc = f"{r.id_accuracy:.4f}" if not math.isnan(r.id_accuracy) else "-"
        line = f"{r.kind:34s} {ood:>8s} {idacc:>8s} {r.seconds:8.1f}"
        if r.error:
            line += f"  ERROR {r.error}"
            failed = True
        print(line)
    return 1 if failed else 0


def _cmd_sweep(cfg: RunConfig, run_dir: str) -> int:
    ckpt = _require_checkpoint(cfg)
    data = _load_or_generate(cfg)
    model = _model_from_checkpoint(cfg, ckpt)
    accuracies = batch_size_sweep(model, data.ood_test, cfg.size_list())
    sweep_path = os.path.join(run_dir, "sweep.csv")
    _write_csv(sweep_path, ["eval_batch_size", "ood_accuracy"],
               ([size, repr(accuracies[size])] for size in sorted(accuracies)))
    write_summary_json(
        {
            "command": "sweep",
            "config_hash": config_hash(cfg),
            "kind": cfg.context_kind,
            "checkpoint": cfg.checkpoint_path,
            "ood_accuracy_by_size": {str(k): v for k, v in sorted(accuracies.items())},
        },
        os.path.join(run_dir, "summary.json"),
    )
    print(f"sweep: {sweep_path}")
    for size in sorted(accuracies):
        print(f"  batch size {size:4d}: ood accuracy {accuracies[size]:.4f}")
    return 0


def _cmd_export_context(cfg: RunConfig, run_dir: str) -> int:
    ckpt = _require_checkpoint(cfg)
    data = _load_or_generate(cfg)
    model = _model_from_checkpoint(cfg, ckpt)
    if cfg.analysis_split == "all":
        subset = GroupedBatch.concat([data.id_test, data.ood_test])
    elif cfg.analysis_split in ("train", "val", "id_test", "ood_test"):
        subset = data.splits()[cfg.analysis_split]
    else:
        raise ValueError(f"analysis_split must be a split name or 'all', got {cfg.analysis_split!r}")
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
               ([gid] + [repr(v) for v in row] for gid, row in zip(gids, tokens)))
    pca_path = os.path.join(run_dir, "context_pca.csv")
    _write_csv(pca_path, ["group", "pc1", "pc2"],
               ([gid, repr(row[0]), repr(row[1])] for gid, row in zip(gids, pca.projections)))
    write_summary_json(
        {
            "command": "export-context",
            "config_hash": config_hash(cfg),
            "kind": cfg.context_kind,
            "layer": cfg.analysis_layer,
            "tokens": tokens_path,
            "pca": pca_path,
            "separation_score": sep.score,
            "separation_flags": {"infinite": sep.infinite, "degenerate": sep.degenerate},
            "pca_explained_ratio": [float(v) for v in pca.explained_ratio],
        },
        os.path.join(run_dir, "summary.json"),
    )
    print(f"tokens: {tokens_path}")
    print(f"pca projections: {pca_path}")
    print(f"separation score {sep.score:.3f} (infinite={sep.infinite}, degenerate={sep.degenerate})")
    print(f"2-component explained variance ratio {pca.explained_ratio.sum():.3f}")
    return 0


def _cmd_grad_check(cfg: RunConfig, run_dir: str) -> int:
    results = run_gradient_suite()
    write_summary_json(
        {"command": "grad-check", "tolerance": TOLERANCE, "results": results},
        os.path.join(run_dir, "gradcheck.json"),
    )
    failures = 0
    for name, err in results.items():
        status = "ok" if err < TOLERANCE else "FAIL"
        if err >= TOLERANCE:
            failures += 1
        print(f"{status:4s} {name:40s} {err:.3e}")
    print(f"{len(results) - failures}/{len(results)} gradient checks within {TOLERANCE:g}")
    return 1 if failures else 0


_DISPATCH = {
    "generate-data": _cmd_generate_data,
    "train": _cmd_train,
    "probe": _cmd_probe,
    "ablate": _cmd_ablate,
    "sweep": _cmd_sweep,
    "export-context": _cmd_export_context,
    "grad-check": _cmd_grad_check,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="contextvit",
        description="Group-conditioned vision transformer on a synthetic shift benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a key=value config file")
        p.add_argument("overrides", nargs="*", help="key=value config overrides")
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)  # config must parse before anything is written
        run_dir = _make_run_dir(cfg)
        print(f"run dir: {run_dir}")
        return _DISPATCH[args.command](cfg, run_dir)
    except BrokenPipeError:
        raise
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
