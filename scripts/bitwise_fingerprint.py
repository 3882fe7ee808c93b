"""Print one SHA-256 per section of a checkout's numerics, to compare two builds bit for bit.

    python3 scripts/bitwise_fingerprint.py <checkout> [<checkout> ...]

Each checkout's ``src`` is imported in a fresh process; the sections are:

* ``training``: for every context kind in float64 and float32, the training
  logits and every parameter gradient of two training steps (AdamW between
  them, then the commit of any ema means the forward returned), the ema
  state by group id, then the eval logits, on a mixed-group batch of a
  depth-3 model;
* ``model_checks``: the ``model.*`` values of ``verify.run_gradient_suite()``,
  one toy-model check per context kind;
* ``op_checks``: every value of ``verify.op_gradient_checks`` at seeds
  0-199, names in the order returned.  These seeds include the suite's
  ``OP_SEEDS``, so its ``op.*`` values are covered here, and a change to the
  list of op checks (which shifts the random stream of every later check)
  still shows whether the model checks kept their bits;
* ``op_values``: the same values in the same order, without their names,
  so a change that renames an op check but keeps its draws from the random
  stream reads ``equal`` here while ``op_checks`` differs;
* ``config``: ``config_to_text`` and ``config_hash`` of ``RunConfig()`` and
  of each override set in ``CONFIG_OVERRIDES``, so one command shows whether
  run-directory names, ``resolved_config.txt`` and the hash a checkpoint
  stores kept their bytes;
* ``cli``: the exit status of each ``cli.main`` run in ``CLI_RUNS``, at toy
  size in a fresh temporary working directory with relative paths, and
  then every file they wrote there, by path.  Run-directory timestamps are
  masked and the ablation's wall-clock ``seconds`` dropped.  ``grad-check``
  is left out: ``model_checks`` and ``op_checks`` cover its suite;
* ``eval``: ``train.predictions`` for every context kind in float64 and
  float32 at each batch size of ``EVAL_SIZES``, over a group-shuffled
  ~100-image subset of a toy dataset's training split (its groups are the
  oracle table's rows, so every kind can evaluate it), with the training
  section's models; the ema model holds state for group 0 only, so its
  other groups infer their token from the batch.

Beside the hashes, a ``tape`` line per kind and dtype gives three plain
numbers for one training step on the training section's first batch: the
nodes the step records, how many of them ``backward`` never reaches from
the loss (found by walking ``Tape.nodes`` in reverse from the loss through
each node's ``inputs``), and the model's trainable values.

Given two or more checkouts, the script runs itself on each in a fresh
process and prints their hashes, the tape counts side by side (numbers
only, no verdict), and then one verdict line per hash section: ``equal``,
or the checkouts whose hash differs from the first one's.  It exits 1 when
any hash differs.

Only interfaces that have long been stable are used (``ContextViT.create``,
``forward``, ``to_float32``, ``backward``, ``adamw_step``, ``predictions``,
``generate_dataset``, ``apply_overrides``, ``config_to_text``,
``config_hash``, ``cli.main`` and its config keys), so
one command compares a change with its parent.  BLAS runs on one thread, as in the benchmark.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import types

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

OP_SEEDS = range(200)
GROUPS = [0, 1, 0, 2, 1, 0, 2, 2]
# override sets, each valid under the config checks of every commit compared so far, that between
# them set every key at least once
CONFIG_OVERRIDES = [
    ["context_kind=layerwise_mean_linear_detach", "dim=48", "heads=6", "epochs=5", "train_groups=16",
     "analysis_layer=3"],
    ["context_kind=in_context_patches", "context_patches=8"],
    ["context_kind=ema", "ema_lambda=0.9", "sampler=context"],
    ["context_kind=mean_linear_detach", "seed=5", "epochs=3", "images_per_group=128", "sampler=context"],
    ["context_kind=oracle", "image_h=24", "image_w=24", "patch=6", "num_classes=4", "bias_max=0.2",
     "val_fraction=0.1", "base_lr=1e-3", "weight_decay_end=0.1", "momentum=0.5"],
    ["ablate_kinds=none,mean", "ablate_seeds=3,4", "sweep_sizes=2,8", "collect_batches=4", "eval_batch_size=16",
     "analysis_split=id_test", "dataset_path=d.cvds", "checkpoint_path=c.cvck", "out_dir=elsewhere"],
    ["channels=1", "depth=2", "mlp_ratio=2.0", "ood_groups=3", "signal_amplitude=0.2", "contrast_jitter=0.1",
     "texture_std=0.05", "noise_std=0.02", "train_fraction=0.6", "batch_size=32", "final_lr=1e-4",
     "warmup_epochs=1", "weight_decay_start=0.01"],
]

# the cli section's toy config and its runs, in order: the later ones read the dataset that generate-data
# writes and the checkpoint that train writes, copied to a path with no timestamp in it
CLI_TOY = ["image_h=16", "image_w=16", "patch=4", "dim=16", "depth=2", "heads=2", "num_classes=2", "train_groups=2",
           "ood_groups=1", "images_per_group=16", "epochs=1", "batch_size=8", "warmup_epochs=0",
           "eval_batch_size=8", "context_kind=mean_linear_detach", "dataset_path=data.cvds"]
CLI_RUNS = [
    ["generate-data"],
    ["train"],
    ["probe", "checkpoint_path=trained.cvck"],
    ["sweep", "checkpoint_path=trained.cvck", "sweep_sizes=1,8"],
    ["export-context", "checkpoint_path=trained.cvck", "collect_batches=2"],
    ["ablate", "ablate_kinds=none,oracle", "ablate_seeds=0"],
]
# the eval section's batch sizes and subset size
EVAL_SIZES = (1, 3, 8, 64)
EVAL_IMAGES = 100
RUN_DIR_STAMP = re.compile(rb"([0-9a-f]{12})-\d{8}-\d{6}(-\d+)?")


def _feed(h, array) -> None:
    import numpy as np

    array = np.ascontiguousarray(array)
    h.update(f"{array.dtype.str}{array.shape}".encode())
    h.update(array.tobytes())


def _batches(cv) -> list:
    import numpy as np

    rng = np.random.default_rng(0)
    return [cv.context.GroupedBatch(rng.uniform(0.0, 1.0, (len(GROUPS), 16, 16, 3)),
                                    rng.integers(0, 4, len(GROUPS)), GROUPS) for _ in range(3)]


def _model(cv, kind_name: str, dtype: str):
    """The training section's depth-3 model of ``kind_name``, nudged off its
    init and cast to ``dtype``."""
    import numpy as np

    config = cv.vit.ViTConfig(image_h=16, image_w=16, channels=3, patch=4, dim=16, depth=3, heads=2,
                              num_classes=4)
    kind = cv.context.ContextKind.from_name(kind_name, patches=6)
    model = cv.context.ContextViT.create(config, kind, seed=3, group_ids=sorted(set(GROUPS)))
    for name, p in sorted(model.trainable_parameters().items()):
        # off the zero init, so the context heads shape the logits
        p.data = p.data + 0.05 * np.random.default_rng(len(name)).standard_normal(p.data.shape)
    if dtype == "float32":
        model.to_float32()
    return model


def training_section(cv, h) -> None:
    import numpy as np

    batches = _batches(cv)
    for kind_name in cv.context.CONTEXT_KIND_NAMES:
        for dtype in ("float64", "float32"):
            h.update(f"{kind_name}/{dtype}".encode())
            model = _model(cv, kind_name, dtype)
            params = model.trainable_parameters()
            state = cv.train.AdamWState.init(params)
            for batch in batches[:2]:
                with cv.tensor.Tape() as tape:
                    out, logits = model.forward(batch, train=True, sample_seed=5)
                    cv.tensor.backward(cv.train.batch_cross_entropy(logits, batch.labels), tape)
                _feed(h, logits.data)
                for name, p in sorted(params.items()):
                    h.update(name.encode())
                    _feed(h, p.grad if p.grad is not None else np.zeros(0))
                cv.train.adamw_step(params, state, 1e-3, 0.05)
                # a forward that returns its ema means leaves their commit to the caller; one that
                # moved the state itself returns none
                model.ema_state.update(getattr(out, "ema_means", {}))
                for p in params.values():
                    p.grad = None
            for gid in sorted(model.ema_state):
                h.update(f"ema {gid}".encode())
                _feed(h, model.ema_state[gid])
            with cv.tensor.Tape():
                _, logits = model.forward(batches[2], train=False, sample_seed=5)
            _feed(h, logits.data)


def model_checks_section(cv, h) -> None:
    for name, value in cv.verify.run_gradient_suite().items():
        if name.startswith("model."):
            h.update(f"{name}={float(value).hex()};".encode())


def op_checks_section(cv, h) -> None:
    for seed in OP_SEEDS:
        for name, value in cv.verify.op_gradient_checks(seed=seed).items():
            h.update(f"{seed}:{name}={float(value).hex()};".encode())


def op_values_section(cv, h) -> None:
    for seed in OP_SEEDS:
        for value in cv.verify.op_gradient_checks(seed=seed).values():
            h.update(f"{seed}:{float(value).hex()};".encode())


def tape_counts(cv) -> dict[str, tuple[int, int, int]]:
    """``kind/dtype`` -> (nodes one training step records, nodes of them
    that ``backward`` never reaches from the loss, trainable values)."""
    batch = _batches(cv)[0]
    counts = {}
    for kind_name in cv.context.CONTEXT_KIND_NAMES:
        for dtype in ("float64", "float32"):
            model = _model(cv, kind_name, dtype)
            with cv.tensor.Tape() as tape:
                _, logits = model.forward(batch, train=True, sample_seed=5)
                loss = cv.train.batch_cross_entropy(logits, batch.labels)
            reached = {id(loss)}
            unreached = 0
            for node in reversed(tape.nodes):
                if id(node.output) in reached:
                    reached.update(id(t) for t in node.inputs if t.requires_grad)
                else:
                    unreached += 1
            values = sum(p.data.size for p in model.trainable_parameters().values())
            counts[f"{kind_name}/{dtype}"] = (len(tape.nodes), unreached, values)
    return counts


def config_section(cv, h) -> None:
    for overrides in [[], *CONFIG_OVERRIDES]:
        cfg = cv.config.apply_overrides(cv.config.RunConfig(), overrides)
        h.update(cv.config.config_to_text(cfg).encode())
        h.update(cv.config.config_hash(cfg).encode())


def eval_section(cv, h) -> None:
    import numpy as np

    spec = cv.data.SyntheticShiftSpec(num_classes=4, train_groups=len(set(GROUPS)), ood_groups=1,
                                      images_per_group=48)
    train = cv.data.generate_dataset(spec, 0).train
    subset = train.take(np.random.default_rng(0).permutation(train.size)[:EVAL_IMAGES])
    for kind_name in cv.context.CONTEXT_KIND_NAMES:
        for dtype in ("float64", "float32"):
            model = _model(cv, kind_name, dtype)
            if kind_name == "ema":
                model.ema_state = {0: np.linspace(-1.0, 1.0, model.config.dim, dtype=dtype)}
            for size in EVAL_SIZES:
                h.update(f"{kind_name}/{dtype}/b{size}".encode())
                _feed(h, cv.train.predictions(model, subset, size))


def _without_seconds(name: str, raw: bytes) -> bytes:
    """An ablation table or summary with its wall-clock ``seconds`` dropped."""
    if name == "ablation.csv":
        rows = list(csv.reader(io.StringIO(raw.decode())))
        column = rows[0].index("seconds")
        return repr([row[:column] + row[column + 1:] for row in rows]).encode()
    summary = json.loads(raw)
    for row in summary["rows"]:
        del row["seconds"]
    return json.dumps(summary, sort_keys=True).encode()


def cli_section(cv, h) -> None:
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="fingerprint_cli_") as work:
        os.chdir(work)
        try:
            for command, *overrides in CLI_RUNS:
                with contextlib.redirect_stdout(io.StringIO()):
                    status = cv.cli.main([command, *CLI_TOY, f"out_dir=runs/{command}", *overrides])
                h.update(f"{command} exit {status};".encode())
                if command == "train":
                    (run_dir,) = os.listdir(os.path.join("runs", "train"))
                    shutil.copy(os.path.join("runs", "train", run_dir, "checkpoint.cvck"), "trained.cvck")
            paths = sorted(os.path.relpath(os.path.join(d, name)) for d, _, names in os.walk(".") for name in names)
            for path in paths:
                with open(path, "rb") as f:
                    raw = f.read()
                if path.startswith(os.path.join("runs", "ablate")) and path.endswith((".csv", ".json")):
                    raw = _without_seconds(os.path.basename(path), raw)
                h.update(RUN_DIR_STAMP.sub(rb"\1-stamp", f"{path}\n".encode() + raw))
        finally:
            os.chdir(home)


SECTIONS = {"training": training_section, "model_checks": model_checks_section,
            "op_checks": op_checks_section, "op_values": op_values_section, "config": config_section,
            "cli": cli_section, "eval": eval_section}


def load(checkout: str) -> types.SimpleNamespace:
    """``checkout``'s ``contextvit`` modules that the sections use."""
    sys.path.insert(0, os.path.join(os.path.abspath(checkout), "src"))
    return types.SimpleNamespace(**{m: importlib.import_module(f"contextvit.{m}")
                                    for m in ("cli", "config", "context", "data", "tensor", "train", "verify",
                                              "vit")})


def fingerprint(cv) -> dict[str, str]:
    """Section name -> SHA-256 hex digest, computed with the modules ``cv``."""
    digests = {}
    for name, section in SECTIONS.items():
        h = hashlib.sha256()
        section(cv, h)
        digests[name] = h.hexdigest()
    return digests


def compare(checkouts: list[str]) -> int:
    """Fingerprint each checkout in a fresh process, so no module is shared,
    and compare the hashes; 1 if any section differs."""
    hashes, tapes = [], []
    for i, checkout in enumerate(checkouts, start=1):
        print(f"[{i}] {os.path.abspath(checkout)}", flush=True)
        out = subprocess.run([sys.executable, __file__, checkout], check=True, stdout=subprocess.PIPE,
                             text=True).stdout
        rows = [line.split() for line in out.splitlines()]
        hashes.append({f[0]: f[1] for f in rows if f and f[0] in SECTIONS})
        tapes.append({f[1]: f[2:] for f in rows if len(f) == 5 and f[0] == "tape"})
    for name in SECTIONS:
        for i, digests in enumerate(hashes, start=1):
            print(f"{name if i == 1 else '':15s} [{i}] {digests[name]}")
    ids = " ".join(f"{f'[{i}]':>5s}" for i in range(1, len(checkouts) + 1))
    print(f"{'tape':38s} nodes {ids}  unreached {ids}  values {ids}")
    for case in tapes[0]:
        counts = [t.get(case, ["-", "-", "-"]) for t in tapes]
        nodes, unreached, values = (" ".join(f"{c[j]:>5s}" for c in counts) for j in (0, 1, 2))
        print(f"tape {case:39s} {nodes}  {'':9s} {unreached}  {'':6s} {values}")
    differs = False
    for name in SECTIONS:
        others = [f"[{i}]" for i, d in enumerate(hashes[1:], start=2) if d[name] != hashes[0][name]]
        differs = differs or bool(others)
        print(f"verdict {name:15s} {'differs: ' + ' '.join(others) + ' from [1]' if others else 'equal'}")
    return 1 if differs else 0


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    if len(argv) > 1:
        return compare(argv)
    print(f"checkout {os.path.abspath(argv[0])}")
    cv = load(argv[0])
    for name, digest in fingerprint(cv).items():
        print(f"{name:15s} {digest}")
    print(f"{'tape':44s} nodes unreached values")
    for case, (nodes, unreached, values) in tape_counts(cv).items():
        print(f"tape {case:39s} {nodes:5d} {unreached:9d} {values:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
