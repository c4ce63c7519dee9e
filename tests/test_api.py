"""The public API: the names ``unisearch`` exports and nothing else."""
import unisearch
import unisearch.bounds

PUBLIC = [
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


def test_all_is_pinned():
    assert unisearch.__all__ == PUBLIC
    assert len(PUBLIC) == 23


def test_every_name_resolves():
    assert [name for name in PUBLIC if not hasattr(unisearch, name)] == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from unisearch import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC)


def test_bound_errors_are_plain_value_errors():
    # DomainError, a ValueError subclass, is gone: `except ValueError` still catches
    assert not hasattr(unisearch, "DomainError")
    assert not hasattr(unisearch.bounds, "DomainError")
