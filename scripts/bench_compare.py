"""Compare two checkouts of this repository and write a ``BENCH_<topic>.json``.

    python3 scripts/bench_compare.py --base /path/to/parent --head . --out BENCH_<topic>.json

Two measurements, each run in fresh processes with BLAS held to one thread:

* ``perfbench/run.py`` of each checkout on every workload, in ``PAIRS``
  alternating pairs (base first in even pairs, head first in odd ones), at
  seeds ``SEED0 + pair``.  For every end-to-end metric the file records each
  side's values, median and quartiles, the pairs in which head was better,
  and a ``verdict``: those wins out of the pairs run, whether the medians
  differ by more than base's interquartile range, whether head's median
  is worse than base's by more than the metric's ``BENCHMARK.json`` bound,
  and ``gain_claimable``: head won at least 9 of every 10 pairs and its
  median is better than base's by more than base's interquartile range,
  the rule a claimed gain is judged by.
* Minor page faults and user/system CPU time from ``getrusage`` around a
  bare loop of training steps (forward, backward and AdamW at the recipe's
  schedule, in the dtype ``fine_tune`` trains in, no timing hooks;
  ``WARMUP_STEPS``, then ``MEASURED_STEPS`` counted) at perfbench's
  ``finetune_grouped`` and ``finetune_mixed`` recipes; each probe runs
  alone in a fresh process, ``RUSAGE_REPEATS`` times per checkout,
  alternating between the checkouts.  Every probe starts in one temporary
  working directory (recorded as ``rusage_cwd``) with the same environment
  and reaches its checkout through a link there, ``base`` or ``head``, so
  both sides import from paths of one length.  (There is no probe of the
  gradient suite: its fault count follows glibc heap trims that import
  paths and allocation order set off, not the code under test.)

A fresh process has freed nothing yet, so glibc's heap thresholds sit at
their start values, as in a ``contextvit train`` run; perfbench's worker
processes set up several times before they time a step, so the two
measurements can disagree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
WORKLOADS = ("finetune_grouped", "finetune_mixed", "gradcheck")
PAIRS, SECONDS, SEED0 = 10, 12.0, 601
STEP_LOOPS = {"finetune_grouped": "GROUPED", "finetune_mixed": "MIXED"}  # -> perfbench.workloads recipe
WARMUP_STEPS, MEASURED_STEPS = 5, 40
RUSAGE_REPEATS = 5


def _usage():
    import resource

    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_minflt, r.ru_utime, r.ru_stime


def _delta(before, after, units: int) -> dict:
    faults, user, system = (a - b for a, b in zip(after, before))
    return {"units": units, "minor_faults_per_unit": faults / units,
            "user_ms_per_unit": user * 1000.0 / units, "system_ms_per_unit": system * 1000.0 / units,
            "cpu_ms_per_unit": (user + system) * 1000.0 / units}


def rusage_probe(root: str, probe: str) -> dict:
    """getrusage deltas of one bare step loop (a ``STEP_LOOPS`` name) with
    this checkout's code."""
    sys.path[:0] = [os.path.join(root, "src"), root]
    from contextvit import context, data, tensor, train, vit
    from perfbench import workloads

    recipe = getattr(workloads, STEP_LOOPS[probe])
    dataset = data.generate_dataset(data.SyntheticShiftSpec(**recipe.spec), 0)
    model = context.ContextViT.create(vit.ViTConfig(), context.ContextKind.from_name(recipe.kind), seed=0)
    # the cast ``train.fine_tune`` makes, so the loop times the step training
    # runs; a checkout that predates float32 training has none and runs float64
    getattr(model, "to_float32", lambda: None)()
    config = train.TrainConfig(epochs=recipe.epochs, warmup_epochs=1, batch_size=recipe.batch_size,
                               sampler=recipe.sampler, seed=0, context_kind=recipe.kind)
    steps_per_epoch = data.batches_per_epoch(dataset.train, recipe.batch_size, recipe.sampler)
    params = model.trainable_parameters()
    state = train.AdamWState.init(params)
    batches = data.make_batches(dataset.train, recipe.batch_size, recipe.sampler, 0)
    for step in range(WARMUP_STEPS + MEASURED_STEPS):
        if step == WARMUP_STEPS:
            before = _usage()
        batch = next(batches)
        with tensor.Tape() as tape:
            _, logits = model.forward(batch, train=True)
            tensor.backward(train.batch_cross_entropy(logits, batch.labels), tape)
        train.adamw_step(params, state, *train.schedules(step, config.epochs * steps_per_epoch,
                                                          config.warmup_epochs * steps_per_epoch, config))
    return _delta(before, _usage(), MEASURED_STEPS)


def _run(cmd, cwd) -> str:
    return subprocess.run(cmd, cwd=cwd, env=ENV, stdout=subprocess.PIPE, text=True, check=True).stdout


def perfbench(root: str, workload: str, seed: int) -> dict:
    last = _run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", repr(SECONDS), "--trace", "0"], root).strip().splitlines()[-1]
    result = json.loads(last)
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{root}: {workload} seed {seed} is not correct or has failures: {result}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": med, "q1": q1, "q3": q3}


def verdict(base: dict, head: dict, wins: int, lower: bool, bound: float) -> dict:
    """The gate's reading of one metric from the two sides' ``summary``:
    ``bound`` is the largest relative worsening of head's median allowed."""
    worse = head["median"] - base["median"] if lower else base["median"] - head["median"]
    pairs = len(base["values"])
    beyond_iqr = abs(head["median"] - base["median"]) > base["q3"] - base["q1"]
    return {"wins": wins, "pairs": pairs, "bound": bound,
            "medians_differ_beyond_base_iqr": beyond_iqr,
            "head_worse_beyond_bound": worse > bound * abs(base["median"]),
            "gain_claimable": 10 * wins >= 9 * pairs and beyond_iqr and worse < 0}


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": ENV["OPENBLAS_NUM_THREADS"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="checkout to compare against")
    parser.add_argument("--head", default=".", help="checkout under test")
    parser.add_argument("--out")
    parser.add_argument("--rusage-of", nargs=2, help=argparse.SUPPRESS)  # internal: ROOT PROBE in this process
    args = parser.parse_args(argv)
    if args.rusage_of:
        print(json.dumps(rusage_probe(*args.rusage_of)))
        return 0
    if not args.base or not args.out:
        parser.error("--base and --out are required")

    sides = {"base": os.path.abspath(args.base), "head": os.path.abspath(args.head)}
    report = {"machine": machine(), "seconds": SECONDS, "pairs": PAIRS,
              "seeds": [SEED0 + i for i in range(PAIRS)], "workloads": {}, "rusage": {}}
    with open(os.path.join(sides["head"], "BENCHMARK.json"), encoding="utf-8") as f:
        end_to_end = json.load(f)["end_to_end"]
    for workload in WORKLOADS:
        runs = {"base": [], "head": []}
        for i in range(PAIRS):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(perfbench(sides[side], workload, SEED0 + i))
                print(f"{workload} pair {i} {side}: {runs[side][-1]}", file=sys.stderr, flush=True)
        metrics = {}
        for entry in end_to_end:
            name, lower = entry["name"], entry["better"] == "lower"
            base = [r[name] for r in runs["base"]]
            head = [r[name] for r in runs["head"]]
            wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
            base_summary, head_summary = summary(base), summary(head)
            metrics[name] = {"unit": entry["unit"], "better": entry["better"], "base": base_summary,
                             "head": head_summary, "head_better_pairs": wins,
                             "verdict": verdict(base_summary, head_summary, wins, lower, entry["bound"])}
        report["workloads"][workload] = metrics
    script = os.path.abspath(__file__)
    with tempfile.TemporaryDirectory(prefix="bench_compare_") as cwd:
        # each side's probes import its checkout through a link in one
        # neutral directory; "base" and "head" have one length, so where a
        # checkout lives does not change the path strings a probe allocates
        roots = {side: os.path.join(cwd, side) for side in sides}
        for side, root in roots.items():
            os.symlink(sides[side], root)
        report["rusage_cwd"] = cwd
        for probe in STEP_LOOPS:
            repeats = {"base": [], "head": []}
            for i in range(RUSAGE_REPEATS):
                for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
                    last = _run([sys.executable, script, "--rusage-of", roots[side], probe], cwd)
                    repeats[side].append(json.loads(last.strip().splitlines()[-1]))
                    print(f"{probe} repeat {i} {side}: {repeats[side][-1]}", file=sys.stderr, flush=True)
            report["rusage"][probe] = {
                side: {key: summary([r[key] for r in runs]) for key in runs[0] if key != "units"}
                | {"units": runs[0]["units"]}
                for side, runs in repeats.items()
            }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
