"""One process's share of a benchmark run; ``run.py`` starts it.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE CHECK

TRACE and CHECK are 0 or 1.  Prints, as its last line, one JSON object with
what the process measured (``workloads.run_process``).
"""

from __future__ import annotations

import os
import sys

# one thread: must be fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def main(argv) -> int:
    workload, seed, seconds, trace, check = argv
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import workloads

    os.makedirs(OUT, exist_ok=True)
    part = workloads.run_process(workload, int(seed), float(seconds), trace == "1", check == "1", OUT)
    sys.stdout.write(json.dumps(part) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
