"""Benchmark command for unisearch.

    python3 perfbench/run.py --workload solve|report|verify --seed N \
        --seconds S --trace 0|1

Run from the repository root.  One process, one thread, closed loop: each
op starts when the previous one has returned.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer ones with ``--trace 1``).
See perfbench/README.md for the workloads, metrics and checks.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("solve", "report", "verify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    # the benchmark measures the sources next to it, never an installed copy
    if not (SRC / "unisearch" / "__init__.py").is_file():
        print(f"error: no unisearch sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("UNISEARCH_THREADS", None)   # the thread pool stays off
    # one thread: no BLAS or OpenMP workers, here or in the set-up starts
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import measure

    print(measure.machine())
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    run = measure.traced_run if args.trace else measure.plain_run
    out = run(args.workload, args.seed, args.seconds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
