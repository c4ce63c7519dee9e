"""Derivative-free minimization of unimodal functions on an interval.

Five bracketing methods (interval halving, trichotomy, dichotomous search,
golden section, Fibonacci search) over a shared instrumented objective, with
worst-case bound calculators, a brute-force grid oracle, and a benchmark
registry of reference cases.
"""
from .core import (
    Interval,
    NonFiniteValue,
    Objective,
    RunResult,
    StopRule,
    TraceEvent,
)
from .solvers import (
    Method,
    minimize,
)
from .bounds import IterationBound, accuracy_bound, iteration_bound
from .oracle import brute_force_minimum
from .bench import (
    BenchmarkCase,
    ReportRow,
    all_cases,
    emit_report,
    find_case,
    registry_table1,
    registry_table2,
    run_table1,
    run_table2,
    run_verify,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkCase",
    "Interval",
    "IterationBound",
    "Method",
    "NonFiniteValue",
    "Objective",
    "ReportRow",
    "RunResult",
    "StopRule",
    "TraceEvent",
    "accuracy_bound",
    "all_cases",
    "brute_force_minimum",
    "emit_report",
    "find_case",
    "iteration_bound",
    "minimize",
    "registry_table1",
    "registry_table2",
    "run_table1",
    "run_table2",
    "run_verify",
    "__version__",
]
