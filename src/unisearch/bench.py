"""Benchmark registries and comparison harness.

Two registries of test problems with published reference results: table 1
fixes a half-width tolerance per case and compares evaluation counts; table
2 fixes evaluation budgets (``TABLE2_BUDGETS``: 10, 20, 30) and compares
the achieved error |x_hat - x*|; :func:`run_verify` compares every solver's
minimizer with the grid oracle's.  All three harnesses return tuples of one
row type, :class:`ReportRow`, and :func:`emit_report` renders the tables'
rows.  Functions are hard-coded closures (numpy ufuncs, so the same closure
serves scalar solver calls and vectorized oracle grids); there is no
expression parsing.

A table-1 count passes when it lands within +/-2 of the reference; a table-2
error passes when it is at most twice the reference and (for halving and
trichotomy) no worse than the guaranteed accuracy bound.  Cases flagged
``garbled`` are reported but excluded from pass/fail.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import _SHRINK, accuracy_bound
from .core import Interval, NonFiniteValue, Objective, StopRule
from .oracle import brute_force_minimum
from .solvers import Method, minimize

FLAG_ENDPOINT_MIN = "endpoint-min"   # minimizer sits on the bracket boundary
FLAG_GARBLED = "garbled"             # reference row is corrupt; report, don't gate

TABLE1_COUNT_TOLERANCE = 2
TABLE2_ERROR_FACTOR = 2.0
TABLE2_BUDGETS = (10, 20, 30)
VERIFY_TOL = 1e-6          # half-width every solver runs at in verify
VERIFY_AGREEMENT = 1e-4    # solver-oracle distance verify accepts
VERIFY_INSET = 1e-9        # oracle grid inset at each end, as a share of the length


@dataclass(frozen=True, eq=False)
class BenchmarkCase:
    """One registry entry: a function, a bracket, and its reference results."""

    id: str
    label: str
    fn: Callable[[float], float]
    interval: Interval
    x_star: float                             # best known minimizer (float64-accurate)
    tol: float | None = None                  # table-1 half-width target
    ref_counts: dict[Method, int] | None = None                  # in table-1 row order
    ref_errors: dict[tuple[Method, int], float] | None = None    # in table-2 row order
    flags: frozenset[str] = frozenset()


def _t1(num, label, fn, lo, hi, tol, x_star, n_halving, n_trichotomy, n_golden, flags=()):
    return BenchmarkCase(
        id=f"t1_{num:02d}",
        label=label,
        fn=fn,
        interval=Interval(lo, hi),
        x_star=x_star,
        tol=tol,
        ref_counts={
            Method.HALVING: n_halving,
            Method.TRICHOTOMY: n_trichotomy,
            Method.GOLDEN: n_golden,
        },
        flags=frozenset(flags),
    )


def _t2(num, label, fn, lo, hi, x_star, halving, trichotomy, fibonacci):
    errors = {}
    for method, cells in (
        (Method.HALVING, halving),
        (Method.TRICHOTOMY, trichotomy),
        (Method.FIBONACCI, fibonacci),
    ):
        for n, err in zip(TABLE2_BUDGETS, cells):
            errors[(method, n)] = err
    return BenchmarkCase(
        id=f"t2_{num:02d}",
        label=label,
        fn=fn,
        interval=Interval(lo, hi),
        x_star=x_star,
        ref_errors=errors,
    )


_TABLE1: tuple[BenchmarkCase, ...] = (
    _t1(1, "exp(x) + 1/x", lambda x: np.exp(x) + 1 / x,
        0.5, 1.0, 1e-3, 0.7034674224983917, 15, 15, 15),
    _t1(2, "5/x + x^2", lambda x: 5 / x + x**2,
        0.5, 2.0, 1e-6, 1.3572088082974534, 37, 31, 32),
    _t1(3, "-5/(x^2 - 2x + 5)", lambda x: -5 / (x**2 - 2 * x + 5),
        0.8, 2.0, 1e-7, 1.0, 35, 31, 36),
    _t1(4, "exp(-2x) + x^2/2", lambda x: np.exp(-2 * x) + x**2 / 2,
        0.0, 1.5, 1e-8, 0.6010839365985214, 48, 40, 42),
    _t1(5, "exp(x-1) + 1/x", lambda x: np.exp(x - 1) + 1 / x,
        0.0, 1.5, 1e-6, 1.0, 31, 28, 32),
    _t1(6, "x^2 - x*exp(-x)", lambda x: x**2 - x * np.exp(-x),
        0.0, 1.0, 1e-7, 0.27520839265771546, 42, 34, 36),
    _t1(7, "5x^2 + 1/x", lambda x: 5 * x**2 + 1 / x,
        0.0, 2.5, 1e-5, 0.46415888336127786, 31, 27, 28),
    _t1(8, "exp(-x) + 1/(1-x)", lambda x: np.exp(-x) + 1 / (1 - x),
        -3.0, 0.0, 1e-6, 0.0, 43, 40, 33, flags=(FLAG_ENDPOINT_MIN,)),
    _t1(9, "2 - x + x^2", lambda x: 2 - x + x**2,
        0.0, 2.0, 1e-8, 0.5, 53, 43, 42),
    _t1(10, "-x*exp(-0.5x)", lambda x: -(x * np.exp(-0.5 * x)),
        0.0, 3.0, 1e-4, 2.0, 22, 20, 24),
    _t1(11, "-(0.2x + sin(2x))", lambda x: -(0.2 * x + np.sin(2 * x)),
        0.0, 3.0, 1e-7, 0.8354818739782283, 42, 37, 38),
    _t1(12, "-(1/x - exp(-x))", lambda x: -(1 / x - np.exp(-x)),
        0.0, 0.5, 1e-5, 0.0, 16, 21, 25, flags=(FLAG_ENDPOINT_MIN,)),
    _t1(13, "exp(x) + x^2", lambda x: np.exp(x) + x**2,
        -1.0, 0.0, 1e-6, -0.35173371124919584, 34, 27, 31),
    # x**4 is written (x * x) ** 2 because NumPy's float64 power is about 30x
    # slower on negative bases, which fill this bracket (it rounds differently)
    _t1(14, "x^4 + 2x^2 + 4x", lambda x: (x * x) ** 2 + 2 * x**2 + 4 * x,
        -1.0, 0.0, 1e-4, -0.6823278038280193, 22, 20, 22),
    _t1(15, "x^2 + sin(x)", lambda x: x**2 + np.sin(x),
        -1.0, 0.0, 1e-8, -0.45018361129487355, 48, 41, 40),
    _t1(16, "exp(x) + 1/(x+2)", lambda x: np.exp(x) + 1 / (x + 2),
        -1.0, 1.0, 1e-5, -0.6298461156908121, 30, 25, 28),
    _t1(17, "2/x^2", lambda x: 2 / x**2,
        -2.0, 0.0, 1e-8, -2.0, 28, 35, 42, flags=(FLAG_ENDPOINT_MIN,)),
    _t1(18, "-5x^2*exp(-0.5x)", lambda x: -(5 * x**2 * np.exp(-0.5 * x)),
        2.0, 6.0, 1e-7, 4.0, 51, 33, 39),
    _t1(19, "-(0.1x + cos(x))", lambda x: -(0.1 * x + np.cos(x)),
        4.0, 9.0, 1e-5, 6.383352728341146, 34, 26, 30),
    _t1(20, "-(cos(1.5x)/sin(1.5x) - x^2)", lambda x: -(np.cos(1.5 * x) / np.sin(1.5 * x) - x**2),
        4.0, 9.0, 1e-6, 4.19, 31, 29, 35, flags=(FLAG_GARBLED,)),
)

_TABLE2: tuple[BenchmarkCase, ...] = (
    _t2(1, "(x - 1.1)^2", lambda x: (x - 1.1) ** 2, 0.0, 2.0, 1.1,
        halving=(0.625e-2, 0.977e-4, 0.611e-5),
        trichotomy=(0.123e-2, 0.152e-4, 0.019e-5),
        fibonacci=(0.511e-2, 0.365e-4, 0.082e-5)),
    _t2(2, "-5x^2*exp(-0.5x)", lambda x: -(5 * x**2 * np.exp(-0.5 * x)), 1.0, 6.0, 4.0,
        halving=(0.313e-1, 0.488e-3, 0.763e-5),
        trichotomy=(0.062e-1, 0.076e-3, 0.094e-5),
        fibonacci=(0.056e-1, 0.411e-3, 0.037e-5)),
    _t2(3, "cos(x)", lambda x: np.cos(x), 2.0, 4.0, math.pi,
        halving=(0.146e-1, 0.009e-3, 0.635e-5),
        trichotomy=(0.058e-1, 0.154e-3, 0.027e-5),
        fibonacci=(0.018e-1, 0.029e-3, 0.015e-5)),
)


def registry_table1() -> list[BenchmarkCase]:
    """The twenty fixed-tolerance cases, ids t1_01..t1_20."""
    return list(_TABLE1)


def registry_table2() -> list[BenchmarkCase]:
    """The three fixed-budget cases, ids t2_01..t2_03."""
    return list(_TABLE2)


def all_cases() -> list[BenchmarkCase]:
    return list(_TABLE1 + _TABLE2)


def find_case(case_id: str) -> BenchmarkCase:
    for case in _TABLE1 + _TABLE2:
        if case.id == case_id:
            return case
    raise KeyError(f"no benchmark case with id {case_id!r}")


@dataclass(frozen=True)
class ReportRow:
    case: str
    method: Method
    n: int | None                 # budget column; empty for table 1 and verify
    measured: float | None        # count (table 1), |x_hat - x*| (table 2) or x_hat (verify)
    expected: float | None        # published reference value, or the oracle's minimizer
    passed: bool | None           # None = excluded from pass/fail
    deviation: float | None       # measured - expected


def _row(case, method, n, stop, expected, measure, judge) -> ReportRow:
    """Run ``method`` on ``case`` under ``stop`` and report one row.

    ``measure`` maps the run to the measured value and ``judge(measured,
    expected)`` to its verdict; ``judge=None`` marks a garbled row, reported
    without one.  A non-finite objective value fails the row.
    """
    try:
        measured = measure(minimize(method, Objective(case.fn), case.interval, stop))
    except NonFiniteValue:
        return ReportRow(case.id, method, n, None, expected, None if judge is None else False, None)
    passed = None if judge is None else judge(measured, expected)
    return ReportRow(case.id, method, n, measured, expected, passed, measured - expected)


def run_table1() -> tuple[ReportRow, ...]:
    """Run every fixed-tolerance case under each method it has a reference count for."""

    def judge(measured, expected):
        return abs(measured - expected) <= TABLE1_COUNT_TOLERANCE

    return tuple(
        _row(case, method, None, StopRule(epsilon=case.tol), count,
             lambda res: res.n_evals, None if FLAG_GARBLED in case.flags else judge)
        for case in _TABLE1
        for method, count in case.ref_counts.items()
    )


def run_table2() -> tuple[ReportRow, ...]:
    """Run every fixed-budget case at each (method, budget) it has a reference error for."""
    rows = []
    for case in _TABLE2:
        for (method, n), error in case.ref_errors.items():
            bound = (accuracy_bound(method, case.interval.length(), n)
                     if method in _SHRINK else math.inf)
            # The published Fibonacci errors are finer than any
            # N-evaluation lattice allows; they correspond to one
            # uncharged stage on top of the nominal budget, matching
            # how the iterative methods get to finish the iteration
            # that crosses the budget.  Reproduce that convention.
            stop = StopRule(budget=n + 1 if method is Method.FIBONACCI else n)
            rows.append(_row(
                case, method, n, stop, error,
                lambda res: abs(res.x_min - case.x_star),
                lambda measured, expected: measured <= min(TABLE2_ERROR_FACTOR * expected, bound),
            ))
    return tuple(rows)


def run_verify() -> tuple[ReportRow, ...]:
    """Check every solver against the grid oracle on every non-garbled case.

    This is acceptance criterion 7: each solver runs at half-width
    ``VERIFY_TOL`` (Fibonacci at the N it plans from it), the oracle
    scans the default 10^6+1-point grid inset by ``VERIFY_INSET`` of the
    bracket, and a row passes when the two agree within ``VERIFY_AGREEMENT``.
    A row holds the solver's minimizer as ``measured`` and the oracle's as
    ``expected``; a non-finite objective value propagates.  For another
    grid, call ``brute_force_minimum(case.fn, Interval(lo + d, hi - d),
    points=N)`` with a bracket and a point count of your own.
    """
    cases = [c for c in all_cases() if FLAG_GARBLED not in c.flags]
    rows = []
    stop = StopRule(epsilon=VERIFY_TOL)
    for case in cases:
        iv = case.interval
        d = iv.length() * VERIFY_INSET
        x_oracle, _ = brute_force_minimum(case.fn, Interval(iv.lo + d, iv.hi - d))
        for method in Method:
            x = minimize(method, Objective(case.fn), iv, stop).x_min
            rows.append(ReportRow(case.id, method, None, x, x_oracle,
                                  abs(x - x_oracle) <= VERIFY_AGREEMENT, x - x_oracle))
    return tuple(rows)


def _fmt(value, sig17: bool) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    return repr(float(value)) if sig17 else f"{value:.2e}"


CSV_HEADER = "case,method,n,measured,paper,pass,deviation"


def emit_report(rows: tuple[ReportRow, ...], fmt: str = "markdown") -> str:
    """Render report rows as csv, markdown, or json (byte-deterministic).

    Every format names its columns by :data:`CSV_HEADER`; markdown prints a
    float in 3 significant digits and the verdict as yes, NO or -.
    """
    cols = CSV_HEADER.split(",")
    records = [dict(zip(cols, (r.case, r.method.value, r.n, r.measured, r.expected,
                               r.passed, r.deviation))) for r in rows]
    if fmt == "json":
        return json.dumps(records, indent=2) + "\n"
    if fmt == "csv":
        lines = [CSV_HEADER] + [",".join(_fmt(v, True) for v in rec.values()) for rec in records]
    elif fmt == "markdown":
        lines = ["| " + " | ".join(cols) + " |",
                 "|" + "|".join("-" * (len(c) + 2) for c in cols) + "|"]
        for rec in records:
            rec["pass"] = {True: "yes", False: "NO", None: "-"}[rec["pass"]]
            lines.append("| " + " | ".join(_fmt(v, False) for v in rec.values()) + " |")
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return "\n".join(lines) + "\n"
