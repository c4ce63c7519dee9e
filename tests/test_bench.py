"""Benchmark registry, table harnesses, report emission, oracle verify."""
import json
import math
from fractions import Fraction

import numpy as np
import pytest

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
    fibonacci_budget_for,
    find_case,
    registry_table1,
    registry_table2,
    run_table1,
    run_table2,
    run_verify,
)
from unisearch.core import Interval
from unisearch.oracle import GridSpec, brute_force_minimum, is_unimodal
from unisearch.solvers import Method

# froze spot rows of the reference tables; a silent registry edit must fail
_SPOT_ROWS = {
    "t1_02": ("5/x + x^2", 0.5, 2.0, 1e-6, 1.3572088082974534,
              {Method.HALVING: 37, Method.TRICHOTOMY: 31, Method.GOLDEN: 32}),
    "t1_09": ("2 - x + x^2", 0.0, 2.0, 1e-8, 0.5,
              {Method.HALVING: 53, Method.TRICHOTOMY: 43, Method.GOLDEN: 42}),
    "t1_18": ("-5x^2*exp(-0.5x)", 2.0, 6.0, 1e-7, 4.0,
              {Method.HALVING: 51, Method.TRICHOTOMY: 33, Method.GOLDEN: 39}),
}


def _inset_grid(case, points=1001):
    """``points`` grid points of ``case``'s bracket at verify's inset."""
    iv = case.interval
    inset = iv.length() * VERIFY_INSET
    return np.linspace(iv.lo + inset, iv.hi - inset, points)


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
            grid = GridSpec(points=100_001, inset=c.interval.length() * 1e-9)
            x, _ = brute_force_minimum(c.fn, c.interval, grid)
            assert abs(x - c.x_star) <= 2 * c.interval.length() / 100_000

    def test_non_unimodal_cases(self):
        # the methods assume a unimodal function; at 10,001 points two cases
        # are not: t1_11 rises to a maximum near x = 2.31 and falls to x = 3,
        # and the garbled t1_20 has poles inside its bracket
        not_unimodal = {
            c.id for c in all_cases()
            if not is_unimodal(c.fn, c.interval,
                               GridSpec(points=10_001, inset=c.interval.length() * 1e-9))
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

    def test_pinned_counts(self):
        rows = _subset(run_table1(), "t1_09")
        by_method = {r.method: r for r in rows}
        assert by_method[Method.HALVING].measured == 53
        assert by_method[Method.TRICHOTOMY].measured == 43
        assert by_method[Method.GOLDEN].measured == 42
        assert all(r.deviation == 0 for r in rows)


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


class TestFibonacciBudgetFor:
    def test_values(self):
        assert fibonacci_budget_for(2.0, 1e-6) == 30    # F(31) = 2178309 >= 2e6
        assert fibonacci_budget_for(1.0, 0.5) == 2      # F(3) = 3 suffices
        assert fibonacci_budget_for(3.0, 1.0) == 2

    def test_bound_definition(self):
        fib = [1, 1]
        while len(fib) < 60:
            fib.append(fib[-1] + fib[-2])
        for tol in (1e-3, 1e-5, 1e-8):
            n = fibonacci_budget_for(2.0, tol)
            assert 2.0 / fib[n + 1] <= tol
            assert n == 2 or 2.0 / fib[n] > tol

    def test_no_accepted_budget_is_enough(self):
        # 1400 evaluations reach length/F(1401), about 2.2e-293 here
        with pytest.raises(ValueError):
            fibonacci_budget_for(1.0, 1e-300)


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
        assert lines[0].startswith("| case | method |")
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
            assert r.diff == abs(r.x_solver - r.x_oracle)
            assert r.passed == (r.diff <= VERIFY_AGREEMENT)
            assert math.isfinite(r.x_oracle)

    def test_takes_no_grid(self):
        with pytest.raises(TypeError):
            run_verify(grid_points=10_001)

    def test_other_grid_through_library(self):
        # Another grid goes through brute_force_minimum with its own GridSpec:
        # at 10,001 points each case's minimizer lies within one coarse step
        # of the one run_verify found on the default grid.
        fine = {r.case: r.x_oracle for r in run_verify()}
        cases = [c for c in all_cases() if FLAG_GARBLED not in c.flags]
        assert set(fine) == {c.id for c in cases}
        for c in cases:
            inset = c.interval.length() * VERIFY_INSET
            x, _ = brute_force_minimum(c.fn, c.interval, GridSpec(points=10_001, inset=inset))
            step = (c.interval.length() - 2 * inset) / 10_000
            assert abs(x - fine[c.id]) <= step, (c.id, x, fine[c.id], step)
