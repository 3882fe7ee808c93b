"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload finetune_grouped --seed 0 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/``;
BLAS is held to one thread.  The run is split over a few fresh processes
(``worker.py``), one after another, because one process can run the same
work several percent faster or slower than the next for as long as it
lives; the result pools their unit times.  Details of the run (unit and
probe times, per-round times, checks, losses, accuracies, machine) go to
``perfbench/out/``; a traced run, one process, also writes its spans there.
"""

from __future__ import annotations

import os
import sys

# one thread: must be fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
TIME_LIMIT_S = 170.0  # for all processes of one run together


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "contextvit", "__init__.py")):
        print(f"error: no contextvit package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    processes = 1 if args.trace else workloads.PROCESSES[args.workload]
    deadline = time.monotonic() + TIME_LIMIT_S
    parts = []
    for i in range(processes):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload, str(args.seed),
               repr(args.seconds / processes), str(args.trace), "1" if i == 0 else "0"]
        try:
            # subprocess.run kills and reaps the process on timeout or interrupt
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"error: process {i} of the run did not end within the run's {TIME_LIMIT_S:.0f} s", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"error: process {i} of the run exited with code {proc.returncode}", file=sys.stderr)
            return 1
        parts.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    result = workloads.combine(args.workload, bool(args.trace), parts)

    os.makedirs(OUT, exist_ok=True)
    checked = parts[0]
    details = {"workload": args.workload, "seed": args.seed, "trace": bool(args.trace), "result": result,
               "checks": checked["checks"], "machine": machine(), "processes": parts}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as f:
        json.dump(details, f, indent=1, sort_keys=True)
        f.write("\n")

    for metric, entry in result["metrics"].items():
        print(f"{metric:40s} {entry['value']:14.6g} {entry['unit']}")
    for key, value in checked["checks"].items():
        print(f"check {key}: {value}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
