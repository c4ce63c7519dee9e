"""Compare two source trees' benchmark runs in alternating pairs.

    python3 tools/bench_pair.py OLD_TREE NEW_TREE WORKLOAD [--pairs K] [--seconds S]

Each pair runs ``perfbench/run.py --workload WORKLOAD --trace 0`` at seed 1
once in each tree, from that tree, one run at a time.  Odd pairs run OLD
first and even pairs NEW first, so drift of a shared host falls on both
sides alike.  K defaults to 10 and must be at least 2; S defaults to
``run_seconds`` of ``OLD_TREE/BENCHMARK.json``, whose ``end_to_end`` list
names the metrics and the direction in which each is better.

Prints each pair's end-to-end metrics and failed ops per side, then per
metric the median of each side, NEW/OLD of the medians, the distance between
the quartiles of OLD's runs and the number of pairs NEW won (a tie counts for
neither side).  A run that exits non-zero stops the tool with its stderr.
Exits 1 when any run reports ``correct`` false, else 0.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from bench_record import run_pairs, summarize


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old_tree")
    p.add_argument("new_tree")
    p.add_argument("workload")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2: the quartiles need two runs a side")
    old, new = os.path.abspath(args.old_tree), os.path.abspath(args.new_tree)
    with open(os.path.join(old, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]

    results = {"old": [], "new": []}
    correct = True
    for i, order, runs in run_pairs(old, new, args.workload, args.pairs, seconds):
        print(f"pair {i} ({order[0]} first)")
        for side in ("old", "new"):
            r = runs[side]["result"]
            results[side].append(r)
            correct = correct and r["correct"]
            values = "  ".join(f"{name}={r['metrics'][name]['value']:.6g}" for name, _ in metrics)
            print(f"  {side}: {values}  failed {r['failed']}/{r['attempted']}"
                  f"{'' if r['correct'] else '  INCORRECT'}", flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs of {seconds:g} s, "
          f"OLD {args.old_tree}, NEW {args.new_tree}")
    print(f"{'metric':16s} {'better':6s} {'OLD median':>14s} {'NEW median':>14s} "
          f"{'NEW/OLD':>8s} {'OLD IQR':>12s} {'NEW wins':>9s}")
    for name, m in summarize(results["old"], results["new"], metrics).items():
        ratio = f"{m['ratio']:.3f}" if m["ratio"] is not None else "-"
        print(f"{name:16s} {m['better']:6s} {m['old']['median']:14.6g} "
              f"{m['new']['median']:14.6g} {ratio:>8s} {m['old_iqr']:12.4g} "
              f"{m['new_wins']:>4d}/{args.pairs}")
    return 0 if correct else 1


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
