"""Record a source tree's benchmark runs, and its claims against a parent, in JSON.

    python3 tools/bench_record.py TREE OUT.json [--parent PARENT --claim WORKLOAD ...]

Runs ``perfbench/run.py`` of a tree from that tree, one run at a time, at
seed 1 and for ``run_seconds`` of ``TREE/BENCHMARK.json``.

* Each workload of ``TREE/BENCHMARK.json`` that is not claimed runs once in
  TREE with ``--trace 0`` and once with ``--trace 1``.
* Each claimed workload runs in 10 alternating pairs of
  PARENT and TREE with ``--trace 0``; odd pairs run the parent first
  and even pairs the change first, so drift of a shared host falls on both
  sides alike.  Then it runs once with ``--trace 1`` in each tree, so the
  per-layer figures of both sides are in the record too.

OUT.json holds ``commit`` and ``dirty`` of TREE (``dirty`` is true when ``git
status --porcelain`` is not empty, so the measured files may not be the
commit's), the same for ``parent`` when a workload is claimed, the seed, the
seconds and one entry per run: its tree (``change`` or ``parent``), its pair
number (null outside the pairs), its workload, its trace flag, the machine
line it printed first and the JSON object it printed last.  ``claims`` maps each
claimed workload to its pair count and, per end-to-end metric of
``TREE/BENCHMARK.json``, the direction in which it is better, each side's
min, quartiles, median and max over the pairs, the change's median over the
parent's, the distance between the parent's quartiles and the pairs the
change won (a tie counts for neither side).  A run that exits non-zero stops
the tool with that run's stderr; nothing is written then.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SEED = 1
PAIRS = 10     # the fewest pairs that can support a claim


def _git(tree: str, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True,
                          check=True).stdout.strip()


def _commit(tree: str) -> dict:
    return {"commit": _git(tree, "rev-parse", "HEAD"),
            "dirty": _git(tree, "status", "--porcelain") != ""}


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


def run_pairs(old: str, new: str, workload: str, pairs: int, seconds: float):
    """Yield ``(pair, order, runs)`` for K alternating untraced pairs: odd
    pairs run in the order ("old", "new"), even ones in ("new", "old"), and
    ``runs`` maps each side to its run."""
    for i in range(1, pairs + 1):
        order = ("old", "new") if i % 2 else ("new", "old")
        yield i, order, {side: run_benchmark(old if side == "old" else new, workload, seconds, 0)
                         for side in order}


def _wins(new: list[float], old: list[float], better: str) -> int:
    sign = 1 if better == "higher" else -1
    return sum(1 for n, o in zip(new, old) if sign * (n - o) > 0)


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"min": min(values), "q1": q1, "median": median, "q3": q3, "max": max(values)}


def summarize(old: list[dict], new: list[dict], metrics: list[tuple[str, str]]) -> dict:
    """Per metric, each side's spread, NEW/OLD of the medians, OLD's
    quartile distance and NEW's wins, from results in pair order."""
    out = {}
    for name, better in metrics:
        o = [r["metrics"][name]["value"] for r in old]
        n = [r["metrics"][name]["value"] for r in new]
        so, sn = _spread(o), _spread(n)
        out[name] = {"better": better, "old": so, "new": sn,
                     "ratio": sn["median"] / so["median"] if so["median"] else None,
                     "old_iqr": so["q3"] - so["q1"], "new_wins": _wins(n, o, better)}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("tree")
    p.add_argument("out")
    p.add_argument("--parent", help="the parent tree the claimed workloads are paired with")
    p.add_argument("--claim", action="append", default=[], metavar="WORKLOAD")
    args = p.parse_args(argv)
    if bool(args.claim) != bool(args.parent):
        p.error("--parent and --claim go together")
    tree = os.path.abspath(args.tree)
    with open(os.path.join(tree, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    unknown = sorted(set(args.claim) - set(names))
    if unknown:
        p.error(f"unknown workload {', '.join(unknown)}; choose from {', '.join(names)}")
    seconds = spec["run_seconds"]
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]

    record = {**_commit(tree), "seed": SEED, "seconds": seconds}
    if args.claim:
        parent = os.path.abspath(args.parent)
        record["parent"] = _commit(parent)
    runs, claims = [], {}
    sides = {"old": "parent", "new": "change"}
    for name in names:
        if name not in args.claim:
            runs += [{"tree": "change", "pair": None, **run_benchmark(tree, name, seconds, t)}
                     for t in (0, 1)]
            continue
        paired = {"old": [], "new": []}
        for i, order, pair in run_pairs(parent, tree, name, PAIRS, seconds):
            for side in order:
                runs.append({"tree": sides[side], "pair": i, **pair[side]})
                paired[side].append(pair[side]["result"])
        runs += [{"tree": sides[side], "pair": None, **run_benchmark(t, name, seconds, 1)}
                 for side, t in (("old", parent), ("new", tree))]
        claims[name] = {"pairs": PAIRS,
                        "metrics": summarize(paired["old"], paired["new"], metrics)}
    record["runs"] = runs
    if args.claim:
        record["claims"] = claims
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
