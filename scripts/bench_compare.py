"""Compare two checkouts of this repository and write a ``BENCH_<topic>.json``.

    python3 scripts/bench_compare.py --base /path/to/parent --head . --out BENCH_<topic>.json

``perfbench/run.py`` of each checkout runs in fresh processes, with BLAS held
to one thread, on every workload in ``PAIRS`` alternating pairs (base first
in even pairs, head first in odd ones), at seeds ``SEED0 + pair``.  For every
end-to-end metric the file records each side's values, median and
quartiles, the pairs in which head was better, and a ``verdict``: those wins
out of the pairs run, whether the medians differ by more than base's
interquartile range, whether head's median is worse than base's by more
than the metric's ``BENCHMARK.json`` bound, and ``gain_claimable``: head won
at least 9 of every 10 pairs and its median is better than base's by more
than base's interquartile range, the rule a claimed gain is judged by.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
WORKLOADS = ("finetune_grouped", "finetune_mixed", "gradcheck")
PAIRS, SECONDS, SEED0 = 10, 12.0, 601


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
    parser.add_argument("--base", required=True, help="checkout to compare against")
    parser.add_argument("--head", default=".", help="checkout under test")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sides = {"base": os.path.abspath(args.base), "head": os.path.abspath(args.head)}
    report = {"machine": machine(), "seconds": SECONDS, "pairs": PAIRS,
              "seeds": [SEED0 + i for i in range(PAIRS)], "workloads": {}}
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
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
