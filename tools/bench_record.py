"""Record one source tree's benchmark runs in one JSON file.

    python3 tools/bench_record.py TREE OUT.json

Runs ``TREE/perfbench/run.py`` from ``TREE``, one run at a time, for each
workload in ``TREE/BENCHMARK.json`` at seed 1 and at that file's
``run_seconds``, first with ``--trace 0`` and then with ``--trace 1``.
OUT.json holds ``git rev-parse HEAD`` of ``TREE`` as ``commit``, ``dirty``
(true when ``git status --porcelain`` of ``TREE`` is not empty, so the
measured files may not be the commit's), the seed, the seconds and one entry
per run: its workload, its trace flag, the machine line it printed first and
the JSON object it printed last.  A run that exits non-zero stops the tool
with that run's stderr; nothing is written then.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

SEED = 1


def _git(tree: str, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True,
                          check=True).stdout.strip()


def run_benchmark(tree: str, workload: str, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    print(" ".join(argv[1:]), file=sys.stderr, flush=True)
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv[1:])} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return {"workload": workload, "trace": trace, "machine": lines[0],
            "result": json.loads(lines[-1])}


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} TREE OUT.json")
    tree, out = os.path.abspath(sys.argv[1]), sys.argv[2]
    with open(os.path.join(tree, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    head = _git(tree, "rev-parse", "HEAD")
    dirty = _git(tree, "status", "--porcelain") != ""
    runs = [run_benchmark(tree, w["name"], seconds, trace)
            for w in spec["workloads"] for trace in (0, 1)]
    record = {"commit": head, "dirty": dirty, "seed": SEED, "seconds": seconds, "runs": runs}
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
