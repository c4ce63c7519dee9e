"""Measure a change against its parent with the benchmark, and record the runs in JSON.

    python3 tools/bench_record.py PARENT TREE OUT.json

PARENT and TREE are git checkouts.  For each workload of
``TREE/BENCHMARK.json``, in file order, ``perfbench/run.py`` of a tree runs
from that tree, one run at a time, at seed 1 and for ``run_seconds`` of
``TREE/BENCHMARK.json``:

* 10 alternating pairs with ``--trace 0``: odd pairs run PARENT first and
  even pairs TREE first, so drift of a shared host falls on both sides alike;
* then one run with ``--trace 1`` in each tree, so that the per-layer
  figures of both sides are in the record too.

Prints each pair's end-to-end metrics and failed ops per side, each traced
run's failed ops and, after each workload, per end-to-end metric of
``TREE/BENCHMARK.json``: the median of each side, TREE/PARENT of the
medians, the distance between the quartiles of PARENT's runs (its IQR) and
the pairs TREE won (a tie counts for neither side).

OUT.json holds ``commit`` and ``dirty`` of TREE and, under ``parent``, of
PARENT (``dirty`` is true when ``git status --porcelain`` is not empty, so
the measured files may not be the commit's), the seed, the seconds and one
entry per run: its tree (``change`` or ``parent``), its pair number (null
for the traced runs), its workload, its trace flag, the machine line it
printed first and the JSON object it printed last.  ``summary`` maps each
workload to its pair count and, per end-to-end metric, the direction in
which it is better, each side's min, quartiles, median and max over the
pairs, the change's median over the parent's, the distance between the
parent's quartiles and the pairs the change won.

A run that exits non-zero stops the tool with that run's stderr; nothing is
written then.  Exits 1 when any run reports ``correct`` false, else 0.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

SEED = 1
PAIRS = 10     # the fewest pairs that can support a claim
SIDES = {"old": "parent", "new": "change"}


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


def _print_run(run: dict, metrics: list[tuple[str, str]]) -> None:
    r = run["result"]
    values = "".join(f"{name}={r['metrics'][name]['value']:.6g}  " for name, _ in metrics)
    print(f"  {run['tree']}: {values}failed {r['failed']}/{r['attempted']}"
          f"{'' if r['correct'] else '  INCORRECT'}", flush=True)


def _print_summary(workload: str, seconds: float, summary: dict) -> None:
    print(f"\n{workload}: {PAIRS} pairs of {seconds:g} s")
    print(f"{'metric':16s} {'better':6s} {'parent median':>14s} {'change median':>14s} "
          f"{'ratio':>8s} {'parent IQR':>12s} {'wins':>6s}")
    for name, m in summary.items():
        ratio = f"{m['ratio']:.3f}" if m["ratio"] is not None else "-"
        print(f"{name:16s} {m['better']:6s} {m['old']['median']:14.6g} "
              f"{m['new']['median']:14.6g} {ratio:>8s} {m['old_iqr']:12.4g} "
              f"{m['new_wins']:>3d}/{PAIRS}")
    print(flush=True)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 3:
        sys.exit("usage: bench_record.py PARENT TREE OUT.json")
    parent, tree = os.path.abspath(argv[0]), os.path.abspath(argv[1])
    with open(os.path.join(tree, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]

    record = {**_commit(tree), "parent": _commit(parent), "seed": SEED, "seconds": seconds}
    runs, summary = [], {}
    for w in spec["workloads"]:
        name = w["name"]
        paired = {"old": [], "new": []}
        for i, order, pair in run_pairs(parent, tree, name, PAIRS, seconds):
            print(f"{name} pair {i} ({SIDES[order[0]]} first)")
            for side in order:
                runs.append({"tree": SIDES[side], "pair": i, **pair[side]})
                paired[side].append(pair[side]["result"])
                _print_run(runs[-1], metrics)
        print(f"{name} traced")
        for side, t in (("old", parent), ("new", tree)):
            runs.append({"tree": SIDES[side], "pair": None, **run_benchmark(t, name, seconds, 1)})
            _print_run(runs[-1], [])
        summary[name] = {"pairs": PAIRS,
                         "metrics": summarize(paired["old"], paired["new"], metrics)}
        _print_summary(name, seconds, summary[name]["metrics"])
    record["runs"], record["summary"] = runs, summary
    with open(argv[2], "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0 if all(run["result"]["correct"] for run in runs) else 1


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early: send what is left to devnull, so that the
        # flush at exit does not raise again (the recipe of the signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
