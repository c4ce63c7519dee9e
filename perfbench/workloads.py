"""The three workloads: how one op runs, how a pass is checked, and the
closed timed loop that repeats whole passes.

An op is one ``minimize`` call (``solve``), one CLI command (``report``)
or one ``verify`` command (``verify``).  Ops go through module attributes
(``solvers.minimize``, ``cli.main``) looked up when a loop starts, so the
traced run's wrappers see them.
"""
from __future__ import annotations

import contextlib
import io
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from unisearch import bench, cli, core, solvers

import checks
import inputs
from probe import probe

VERIFY_GRID_POINTS = 1_000_001   # the CLI's default grid


@contextlib.contextmanager
def registry_fns(wrap):
    """Temporarily replace each registry case's function with ``wrap(fn)``.

    The cases are frozen dataclasses shared by ``bench`` and ``cli``, so
    the swap reaches every table, run and verify command.
    """
    cases = bench.all_cases()
    originals = [c.fn for c in cases]
    for c, fn in zip(cases, originals):
        object.__setattr__(c, "fn", wrap(fn))
    try:
        yield
    finally:
        for c, fn in zip(cases, originals):
            object.__setattr__(c, "fn", fn)


def scalar_counter(fn, counter: list):
    """``fn`` that adds one to ``counter[0]`` per scalar call (grid calls
    from the oracle are not solver evaluations)."""
    def counted(x):
        if not isinstance(x, np.ndarray):
            counter[0] += 1
        return fn(x)
    return counted


@dataclass
class PassCheck:
    """Outcome of the untimed check pass."""

    evals: int                                 # raw scalar evaluations in one pass
    reasons: list[list[str]]                   # failure reasons per op
    results: list                              # comparable result per op
    evals_by_method: dict[str, list[int]] = field(default_factory=dict)

    @property
    def failing(self) -> int:
        return sum(1 for r in self.reasons if r)


class Solve:
    name = "solve"
    probe_kind, probe_every_s = "python", 0.02

    def __init__(self, seed: int):
        self.inputs = inputs.solve_inputs(seed)
        self.ops = [
            (i.method, i.problem.fn, core.Interval(i.problem.lo, i.problem.hi),
             core.StopRule(epsilon=i.epsilon, budget=i.budget))
            for i in self.inputs
        ]

    def runner(self):
        minimize, objective = solvers.minimize, core.Objective

        def run(op):
            return minimize(op[0], objective(op[1]), op[2], op[3])
        return run

    def with_objective(self, wrap) -> list:
        """The ops with each raw function replaced by ``wrap(fn)``."""
        return [(m, wrap(fn), iv, stop) for m, fn, iv, stop in self.ops]

    @staticmethod
    def comparable(res):
        return (res.x_min, res.f_min, res.n_evals, res.final_interval)

    def expected_failure(self, k: int, reasons: list[str]) -> bool:
        # only the kinds of failure a known fault produces on this input
        return {checks.kind(r) for r in reasons} <= checks.known_fault_kinds(self.inputs[k])

    def check(self) -> PassCheck:
        run = self.runner()
        out = PassCheck(0, [], [])
        for inp, (method, fn, iv, stop) in zip(self.inputs, self.ops):
            counter = [0]
            res = run((method, scalar_counter(fn, counter), iv, stop))
            out.evals += counter[0]
            out.reasons.append(checks.check_solve(inp, res, counter[0]))
            out.results.append(self.comparable(res))
            out.evals_by_method.setdefault(method, []).append(counter[0])
        return out


class _Cli:
    """Shared op for workloads whose ops are in-process ``cli.main`` calls."""

    def runner(self):
        main = cli.main

        def run(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
            return rc, out.getvalue()
        return run

    def with_objective(self, wrap) -> list:
        # the registry's functions are swapped by ``registry_fns`` instead
        return self.ops

    @staticmethod
    def comparable(res):
        return res

    def expected_failure(self, k: int, reasons: list[str]) -> bool:
        return False

    def check(self) -> PassCheck:
        run = self.runner()
        counter = [0]
        with registry_fns(lambda fn: scalar_counter(fn, counter)):
            first = [run(argv) for argv in self.ops]
        out = PassCheck(counter[0], [], first)
        for argv, (rc, text), again in zip(self.ops, first, [run(a) for a in self.ops]):
            reasons = self.check_op(argv, rc, text)
            if again != (rc, text):
                reasons.append("repeated command gave different stdout or exit code")
            out.reasons.append(reasons)
        return out


class Report(_Cli):
    name = "report"
    probe_kind, probe_every_s = "python", 0.02

    def __init__(self, seed: int):
        self.cases = {c.id: c for c in bench.all_cases()}
        self.ops = inputs.report_inputs(seed, list(self.cases))
        self.table_rows = {"1": len(bench.registry_table1()) * 3,
                           "2": len(bench.registry_table2()) * 9}

    def check_op(self, argv, rc, text):
        if argv[0] == "table":
            return checks.check_table(rc, text, self.table_rows[argv[1]])
        iv = self.cases[argv[2]].interval
        return checks.check_run_json(argv, iv.lo, iv.hi, rc, text)


class Verify(_Cli):
    name = "verify"
    # the grid oracle is NumPy work; a probe after every op
    probe_kind, probe_every_s = "numpy", 0.0

    def __init__(self, seed: int):
        self.ops = inputs.verify_inputs(seed)
        self.cases = {
            c.id: (c.interval.lo, c.interval.hi, c.x_star)
            for c in bench.all_cases() if bench.FLAG_GARBLED not in c.flags
        }

    def check_op(self, argv, rc, text):
        return checks.check_verify(rc, text, self.cases, VERIFY_GRID_POINTS)


WORKLOADS = {w.name: w for w in (Solve, Report, Verify)}


@dataclass
class Timed:
    passes: int
    elapsed_s: float
    latencies_ns: list[int]
    last_pass: list
    marks: list[tuple[int, int]]    # (ops timed so far, speed probe ns)


def timed_loop(ops: list, run, seconds: float, probe_kind: str,
               probe_every_s: float) -> Timed:
    """Closed loop: each op starts when the previous one has returned.
    Whole passes only, so every run attempts the same ops in the same
    proportions.  Between ops, at most every ``probe_every_s``, a speed
    probe runs outside the timed ops."""
    clock, lat = time.perf_counter_ns, []
    last = [None] * len(ops)
    passes = 0
    every = int(probe_every_s * 1e9)
    start = clock()
    deadline = start + int(seconds * 1e9)
    marks = [(0, probe(probe_kind))]
    next_probe = clock() + every
    while True:
        for k, op in enumerate(ops):
            t0 = clock()
            last[k] = run(op)
            t1 = clock()
            lat.append(t1 - t0)
            if t1 >= next_probe:
                marks.append((len(lat), probe(probe_kind)))
                next_probe = clock() + every
        passes += 1
        if clock() >= deadline:
            break
    if marks[-1][0] != len(lat):
        marks.append((len(lat), probe(probe_kind)))
    return Timed(passes, (clock() - start) / 1e9, lat, last, marks)


def failure_summary(reasons: list[list[str]]) -> Counter:
    """How many ops of one pass fail each kind of check."""
    return Counter(kind for rs in reasons for kind in {checks.kind(r) for r in rs})
