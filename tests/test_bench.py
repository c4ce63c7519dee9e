"""Benchmark registry, table harnesses, report emission, oracle verify."""
import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import unisearch.bench
from unisearch.bench import (
    CSV_HEADER,
    FLAG_ENDPOINT_MIN,
    FLAG_GARBLED,
    TABLE1_COUNT_TOLERANCE,
    TABLE2_BUDGETS,
    TABLE2_ERROR_FACTOR,
    VERIFY_AGREEMENT,
    VERIFY_INSET,
    all_cases,
    emit_report,
    find_case,
    registry_table1,
    registry_table2,
    run_table1,
    run_table2,
    run_verify,
)
from unisearch.core import Interval, Objective, StopRule
from unisearch.oracle import brute_force_minimum
from unisearch.solvers import Method, minimize
from test_oracle import _reference_unimodal

# froze spot rows of the reference tables; a silent registry edit must fail
_SPOT_ROWS = {
    "t1_02": ("5/x + x^2", 0.5, 2.0, 1e-6, 1.3572088082974534,
              {Method.HALVING: 37, Method.TRICHOTOMY: 31, Method.GOLDEN: 32}),
    "t1_09": ("2 - x + x^2", 0.0, 2.0, 1e-8, 0.5,
              {Method.HALVING: 53, Method.TRICHOTOMY: 43, Method.GOLDEN: 42}),
    "t1_18": ("-5x^2*exp(-0.5x)", 2.0, 6.0, 1e-7, 4.0,
              {Method.HALVING: 51, Method.TRICHOTOMY: 33, Method.GOLDEN: 39}),
}


def _inset_bracket(case, share):
    """``case``'s bracket with ``share`` of its length trimmed off each end."""
    iv = case.interval
    d = iv.length() * share
    return Interval(iv.lo + d, iv.hi - d)


def _inset_grid(case, points=1001):
    """``points`` grid points of ``case``'s bracket at verify's inset."""
    iv = _inset_bracket(case, VERIFY_INSET)
    return np.linspace(iv.lo, iv.hi, points)


class TestRegistry:
    def test_cardinality_and_ids(self):
        t1, t2 = registry_table1(), registry_table2()
        assert [c.id for c in t1] == [f"t1_{i:02d}" for i in range(1, 21)]
        assert [c.id for c in t2] == [f"t2_{i:02d}" for i in range(1, 4)]
        assert len(all_cases()) == 23

    def test_flags(self):
        flagged = {c.id: c.flags for c in registry_table1() if c.flags}
        assert flagged == {
            "t1_08": frozenset({FLAG_ENDPOINT_MIN}),
            "t1_12": frozenset({FLAG_ENDPOINT_MIN}),
            "t1_17": frozenset({FLAG_ENDPOINT_MIN}),
            "t1_20": frozenset({FLAG_GARBLED}),
        }

    def test_spot_rows_frozen(self):
        for cid, (label, lo, hi, tol, x_star, counts) in _SPOT_ROWS.items():
            c = find_case(cid)
            assert c.label == label
            assert c.interval == Interval(lo, hi)
            assert c.tol == tol
            assert c.x_star == x_star
            assert c.ref_counts == counts

    def test_every_t1_case_has_three_reference_counts(self):
        for c in registry_table1():
            assert set(c.ref_counts) == {Method.HALVING, Method.TRICHOTOMY,
                                         Method.GOLDEN}
            assert all(isinstance(v, int) and v > 0 for v in c.ref_counts.values())

    def test_every_t2_case_has_nine_reference_errors(self):
        for c in registry_table2():
            assert TABLE2_BUDGETS == (10, 20, 30)
            keys = {(m, n) for m in (Method.HALVING, Method.TRICHOTOMY,
                                     Method.FIBONACCI) for n in TABLE2_BUDGETS}
            assert set(c.ref_errors) == keys
            assert all(v > 0 for v in c.ref_errors.values())

    def test_minimizers_match_grid_oracle(self):
        for cid in ("t1_02", "t1_11", "t2_02"):
            c = find_case(cid)
            x, _ = brute_force_minimum(c.fn, _inset_bracket(c, 1e-9), points=100_001)
            assert abs(x - c.x_star) <= 2 * c.interval.length() / 100_000

    def test_non_unimodal_cases(self):
        # the methods assume a unimodal function; at 10,001 points two cases
        # are not: t1_11 rises to a maximum near x = 2.31 and falls to x = 3,
        # and the garbled t1_20 has poles inside its bracket.  The verdict is
        # the whole-grid scan's: no strict rise before the first minimizer
        # and no strict fall after it.
        not_unimodal = {
            c.id for c in all_cases()
            if not _reference_unimodal(c.fn, _inset_bracket(c, 1e-9), points=10_001)
        }
        assert not_unimodal == {"t1_11", "t1_20"}

    @pytest.mark.parametrize("case", all_cases(), ids=lambda c: c.id)
    def test_vector_and_scalar_calls_agree(self, case):
        # the oracle calls a closure on arrays and the solvers on floats; a
        # rewrite of one path alone must show here.  The bound is a few ulps
        # of the largest value the case takes on the grid, the order of its
        # summed terms.
        xs = _inset_grid(case)
        vector = np.asarray(case.fn(xs), dtype=float)
        scalar = np.array([float(case.fn(float(x))) for x in xs])
        assert np.isfinite(vector).all()
        assert np.all(np.abs(vector - scalar) <= 4 * math.ulp(np.abs(vector).max()))

    def test_t1_14_is_the_published_polynomial(self):
        # x^4 + 2x^2 + 4x, evaluated exactly; the closure may differ by the
        # rounding of its three terms
        case = find_case("t1_14")
        xs = _inset_grid(case)
        vector = case.fn(xs)
        for x, fx in zip(xs.tolist(), vector.tolist()):
            q = Fraction(x)
            exact = q**4 + 2 * q**2 + 4 * q
            bound = 4 * math.ulp(x**4 + 2 * x**2 + 4 * abs(x))
            for value in (fx, float(case.fn(x))):
                assert abs(Fraction(value) - exact) <= Fraction(bound)

    def test_find_case_unknown(self):
        with pytest.raises(KeyError):
            find_case("t1_99")


def _subset(rows, *case_ids):
    """The ``rows`` on the given cases."""
    return tuple(r for r in rows if r.case in case_ids)


def nan_cases():
    """t1_01 with an objective that returns NaN, and a garbled copy of it."""
    nan = dataclasses.replace(find_case("t1_01"), id="nan", fn=lambda x: math.nan)
    return nan, dataclasses.replace(nan, id="garbled", flags=frozenset({FLAG_GARBLED}))


class TestTable1:
    def test_full_run_matches_references(self):
        rows = run_table1()
        assert len(rows) == 60
        gated = [r for r in rows if r.passed is not None]
        assert len(gated) == 57          # garbled case excluded from the gate
        assert all(r.passed for r in gated)
        assert all(abs(r.deviation) <= TABLE1_COUNT_TOLERANCE for r in gated)

    def test_garbled_case_reported_not_gated(self):
        rows = _subset(run_table1(), "t1_20")
        assert {r.passed for r in rows} == {None}
        assert all(r.measured is not None for r in rows)

    def test_nonfinite_value_fails_the_row(self, monkeypatch):
        # a failed run has no measurement: it fails a gated row and leaves a
        # garbled one ungated, and both render their missing cells empty
        monkeypatch.setattr(unisearch.bench, "_TABLE1", nan_cases())
        rows = run_table1()
        assert len(rows) == 6
        assert all(r.measured is None and r.deviation is None for r in rows)
        assert [r.passed for r in rows] == [False] * 3 + [None] * 3
        csv = emit_report(rows, "csv").splitlines()
        assert csv[1] == "nan,halving,,,15,false,"
        assert csv[4] == "garbled,halving,,,15,,"
        markdown = emit_report(rows, "markdown").splitlines()
        assert markdown[2] == "| nan | halving |  |  | 15 | NO |  |"
        assert markdown[5] == "| garbled | halving |  |  | 15 | - |  |"

    def test_pinned_counts(self):
        rows = _subset(run_table1(), "t1_09")
        by_method = {r.method: r for r in rows}
        assert by_method[Method.HALVING].measured == 53
        assert by_method[Method.TRICHOTOMY].measured == 43
        assert by_method[Method.GOLDEN].measured == 42
        assert all(r.deviation == 0 for r in rows)


class TestCountClaim:
    """The paper's claim that trichotomy "usually require[s] less
    calculations", at equal guarantees: total evaluations over table 1's 19
    gated cases under epsilon stops.  Golden section stops on the full length
    b - a <= epsilon, so it is held to epsilon/2 at the case tolerance and
    gives the others' guarantee at 2*tol."""

    @staticmethod
    def _counts(method, scale=1):
        return [minimize(method, Objective(c.fn), c.interval,
                         StopRule(epsilon=scale * c.tol)).n_evals
                for c in registry_table1() if FLAG_GARBLED not in c.flags]

    @pytest.mark.parametrize("method, scale, total, fewer_equal_more", [
        (Method.HALVING, 1, 662, (16, 1, 2)),
        (Method.GOLDEN, 1, 616, (15, 2, 2)),
        (Method.GOLDEN, 2, 590, (10, 5, 4)),
        (Method.FIBONACCI, 1, 574, (9, 1, 9)),
        (Method.DICHOTOMOUS, 1, 795, (19, 0, 0)),
    ])
    def test_trichotomy_against(self, method, scale, total, fewer_equal_more):
        tri, other = self._counts(Method.TRICHOTOMY), self._counts(method, scale)
        assert (len(tri), sum(tri)) == (19, 574)
        assert sum(other) == total
        assert (sum(t < o for t, o in zip(tri, other)), sum(t == o for t, o in zip(tri, other)),
                sum(t > o for t, o in zip(tri, other))) == fewer_equal_more


class TestTable2:
    def test_full_run_within_tolerances(self):
        rows = run_table2()
        assert len(rows) == 27
        for r in rows:
            assert r.passed
            assert r.measured <= TABLE2_ERROR_FACTOR * r.expected

    def test_errors_not_degenerate(self):
        # achieved errors shrink as the budget grows, per case and method
        by = {(r.case, r.method, r.n): r.measured for r in run_table2()}
        for case in ("t2_01", "t2_02", "t2_03"):
            for m in (Method.HALVING, Method.TRICHOTOMY, Method.FIBONACCI):
                assert by[(case, m, 30)] < by[(case, m, 10)]


class TestFullTables:
    def test_rows_follow_the_registry(self):
        assert [(r.case, r.method, r.n) for r in run_table1()] == [
            (c.id, m, None) for c in registry_table1()
            for m in (Method.HALVING, Method.TRICHOTOMY, Method.GOLDEN)
        ]
        assert [(r.case, r.method, r.n) for r in run_table2()] == [
            (c.id, m, n) for c in registry_table2()
            for m in (Method.HALVING, Method.TRICHOTOMY, Method.FIBONACCI)
            for n in (10, 20, 30)
        ]


class TestEmitReport:
    def test_csv_shape_and_determinism(self):
        rows = _subset(run_table1(), "t1_01", "t1_09")
        text = emit_report(rows, "csv")
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(rows)
        assert text == emit_report(_subset(run_table1(), "t1_01", "t1_09"), "csv")

    def test_json_round_trip(self):
        rows = _subset(run_table2(), "t2_01")
        payload = json.loads(emit_report(rows, "json"))
        assert len(payload) == len(rows)
        assert payload[0]["case"] == "t2_01"
        assert set(payload[0]) == {"case", "method", "n", "measured", "paper",
                                   "pass", "deviation"}

    def test_markdown_table(self):
        lines = emit_report(_subset(run_table1(), "t1_20"), "markdown").splitlines()
        assert lines[0] == "| case | method | n | measured | paper | pass | deviation |"
        assert lines[1] == "|------|--------|---|----------|-------|------|-----------|"
        assert all(line.startswith("|") for line in lines)
        assert " - " in lines[2]        # ungated row renders a dash

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(_subset(run_table1(), "t1_01"), "yaml")


class TestVerify:
    def test_default_grid_agreement(self):
        rows = run_verify()
        assert len(rows) == 22 * len(Method)
        assert all(r.passed for r in rows)
        for r in rows:
            assert abs(r.deviation) == abs(r.measured - r.expected)
            assert r.passed == (abs(r.deviation) <= VERIFY_AGREEMENT)
            assert math.isfinite(r.expected)

    def test_takes_no_grid(self):
        with pytest.raises(TypeError):
            run_verify(grid_points=10_001)

    def test_other_grid_through_library(self):
        # Another grid goes through brute_force_minimum with its own bracket
        # and point count:
        # at 10,001 points each case's minimizer lies within one coarse step
        # of the one run_verify found on the default grid.
        fine = {r.case: r.expected for r in run_verify()}
        cases = [c for c in all_cases() if FLAG_GARBLED not in c.flags]
        assert set(fine) == {c.id for c in cases}
        for c in cases:
            x, _ = brute_force_minimum(c.fn, _inset_bracket(c, VERIFY_INSET), points=10_001)
            step = c.interval.length() * (1 - 2 * VERIFY_INSET) / 10_000
            assert abs(x - fine[c.id]) <= step, (c.id, x, fine[c.id], step)
