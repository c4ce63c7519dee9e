"""Solver behavior: hand-traced runs, invariants, and budget semantics.

The frozen numbers in the pinned tests were derived by hand-tracing the
update rules on dyadic-friendly inputs (so float arithmetic is exact) before
the solvers were written.
"""
import gc
import inspect
import json
import math
import pickle
import weakref
from itertools import pairwise

import pytest
from hypothesis import given, settings, strategies as st
from test_bounds import _FIB

from unisearch import solvers
from unisearch.core import (
    Interval,
    NonFiniteValue,
    Objective,
    StopRule,
    TraceEvent,
)
from unisearch.solvers import Method, minimize

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def quadratic(c, scale=1.0, offset=0.0):
    return lambda x: scale * (x - c) ** 2 + offset


def nan_at_call(f, nan_at):
    """``f``, except that call number ``nan_at`` (1-based; None for never)
    returns NaN."""
    calls = [0]

    def fn(x):
        calls[0] += 1
        return math.nan if calls[0] == nan_at else f(x)

    return fn


# strategy: an interval of workable size and a quadratic with its minimizer
# strictly inside
@st.composite
def interval_and_quadratic(draw):
    lo = draw(st.floats(-50, 50))
    length = draw(st.floats(0.1, 100))
    frac = draw(st.floats(0.05, 0.95))
    scale = draw(st.floats(0.01, 100))
    c = lo + frac * length
    return Interval(lo, lo + length), quadratic(c, scale), c


class TestIntervalHalvingPinned:
    def test_symmetric_square(self):
        res = minimize(
            "halving", Objective(lambda x: x * x), Interval(-1.0, 1.0), StopRule(epsilon=0.25)
        )
        assert res.x_min == 0.0
        assert res.f_min == 0.0
        assert res.n_evals == 5
        assert res.n_iters == 2
        assert res.final_interval == Interval(-0.25, 0.25)

    def test_first_iteration_probes(self):
        res = minimize(
            "halving", Objective(lambda x: x * x), Interval(-1.0, 1.0), StopRule(epsilon=0.25)
        )
        first = res.trace[0]
        # the up-front midpoint probe belongs to iteration 1
        assert first.evals_this_iter == 3
        assert [x for x, _ in first.probes] == [0.0, -0.5, 0.5]

    def test_budget_stops_on_iteration_boundary(self):
        # (x-1.1)^2 on [0, 2]: iteration 5 ends exactly at evaluation 10
        res = minimize(
            "halving", Objective(quadratic(1.1)), Interval(0.0, 2.0), StopRule(budget=10)
        )
        assert res.n_evals == 10
        assert res.x_min == 1.09375

    def test_budget_finishes_crossing_iteration(self):
        # iteration 11 starts at evaluation 20 and is allowed to finish
        res = minimize(
            "halving", Objective(quadratic(1.1)), Interval(0.0, 2.0), StopRule(budget=20)
        )
        assert res.n_evals == 21
        assert res.x_min == 1.10009765625

    def test_tie_keeps_left(self):
        res = minimize(
            "halving", Objective(lambda x: 0.0), Interval(0.0, 1.0), StopRule(epsilon=0.25)
        )
        assert res.final_interval == Interval(0.0, 0.5)
        assert res.x_min == 0.25
        assert res.n_evals == 2    # the tie skips the x3 probe


class TestTrichotomyPinned:
    def test_single_iteration_branch(self):
        # x^2 on [0, 6]: probes 3, 2, 1 then keeps [0, 2] with estimate 1
        res = minimize(
            "trichotomy", Objective(lambda x: x * x), Interval(0.0, 6.0), StopRule(epsilon=1.0)
        )
        assert res.n_iters == 1
        assert res.n_evals == 3
        assert [x for x, _ in res.trace[0].probes] == [3.0, 2.0, 1.0]
        assert res.final_interval == Interval(0.0, 2.0)
        assert res.x_min == 1.0

    def test_symmetric_square(self):
        res = minimize(
            "trichotomy", Objective(lambda x: x * x), Interval(-1.0, 1.0), StopRule(epsilon=0.3)
        )
        assert res.x_min == 0.0
        assert res.n_evals == 5
        assert res.n_iters == 2

    def test_budget_finishes_crossing_iteration(self):
        # -5 x^2 exp(-x/2) on [1, 6]: iteration 4 starts at evaluation 9,
        # spends 3, and leaves the estimate 1/162 from the minimizer at 4
        res = minimize(
            "trichotomy", Objective(lambda x: -5.0 * x * x * math.exp(-0.5 * x)),
            Interval(1.0, 6.0),
            StopRule(budget=10),
        )
        assert res.n_evals == 11
        assert math.isclose(abs(res.x_min - 4.0), 1.0 / 162.0, rel_tol=1e-9)

    def test_collapse_at_float_floor_is_graceful(self):
        # a huge budget drives the bracket below float spacing; the run must
        # stop cleanly instead of constructing an empty interval
        res = minimize(
            "trichotomy", Objective(math.cos), Interval(2.0, 4.0), StopRule(budget=400)
        )
        assert (res.n_evals, res.n_iters) == (77, 34)
        # the iteration that leaves no smaller non-empty bracket is the last
        # event, on the bracket it started from
        assert res.trace[-1].interval_after == res.trace[-2].interval_after
        # cos is flat to double precision within ~1.5e-8 of pi, so comparisons
        # stop carrying information there; the estimate cannot be sharper
        assert abs(res.x_min - math.pi) < 1e-7
        assert res.x_min == float.fromhex("0x1.921fb53e34738p+1")
        assert res.final_interval.lo < res.final_interval.hi


class TestDichotomousPinned:
    def test_single_iteration_length(self):
        # delta = min(0.51/2, 2*1e-6) = 2e-6; the pair -/+1e-6 ties on x^2,
        # so it keeps [a, m + delta/2] = [-1, 1e-6]: length 1 + delta/2
        res = minimize(
            "dichotomous", Objective(lambda x: x * x), Interval(-1.0, 1.0),
            StopRule(epsilon=0.51),
        )
        assert res.n_iters == 1
        assert [x for x, _ in res.trace[0].probes[:2]] == [-1e-6, 1e-6]
        assert res.final_interval == Interval(-1.0, 1e-6)
        assert math.isclose(res.final_interval.length(), 1.000001, abs_tol=1e-15)
        assert res.n_evals == 3    # one pair plus the answer probe
        fin = res.final_interval
        assert res.x_min == (fin.lo + fin.hi) / 2

    @pytest.mark.parametrize("iv,stop,cause", [
        (Interval(0.0, 1e-318), StopRule(budget=10), "length 1e-318"),
        (Interval(0.0, 1.0), StopRule(epsilon=5e-324), "epsilon=5e-324"),
    ])
    def test_underflowed_delta_names_its_cause(self, iv, stop, cause):
        # the derived offset rounds to 0.0, which would probe one point twice
        obj = Objective(abs)
        with pytest.raises(ValueError, match="underflows") as info:
            minimize("dichotomous", obj, iv, stop)
        assert cause in str(info.value)
        assert "got" not in str(info.value)
        assert obj.count == 0

    def test_default_delta_policy(self):
        # half the tolerance, capped at a millionth of the bracket length; the
        # first pair probes m -/+ delta/2 around the midpoint m = 1 of [0, 2]
        iv = Interval(0.0, 2.0)
        for stop, delta in ((StopRule(epsilon=1e-3), 2e-6), (StopRule(epsilon=1e-7), 5e-8),
                            (StopRule(budget=10), 2e-6)):
            res = minimize("dichotomous", Objective(quadratic(0.3)), iv, stop)
            assert [x for x, _ in res.trace[0].probes[:2]] == [1 - delta / 2, 1 + delta / 2]

    def test_budget_fallback_to_pair_probe(self):
        # budget 2 funds one pair and no answer probe; the better pair probe
        # is returned and it lies inside the final bracket
        res = minimize(
            "dichotomous", Objective(quadratic(0.3)), Interval(0.0, 1.0), StopRule(budget=2)
        )
        assert res.n_evals == 2
        assert res.final_interval.lo <= res.x_min <= res.final_interval.hi


class TestGoldenSection:
    def test_answer_is_final_midpoint(self):
        res = minimize(
            "golden", Objective(quadratic(0.3)), Interval(0.0, 1.0), StopRule(epsilon=1e-3)
        )
        iv = res.final_interval
        assert res.x_min == iv.lo + (iv.hi - iv.lo) / 2
        assert res.final_interval.length() <= 1e-3
        assert abs(res.x_min - 0.3) <= 1e-3 / 2

    def test_shrinks_by_inverse_phi(self):
        res = minimize(
            "golden", Objective(quadratic(0.3)), Interval(0.0, 1.0), StopRule(epsilon=1e-6)
        )
        lengths = [ev.interval_after.length() for ev in res.trace]
        prev = 1.0
        for cur in lengths:
            assert math.isclose(cur, prev * _INVPHI, rel_tol=1e-9)
            prev = cur

    def test_budget_mode_spends_exactly_n(self):
        res = minimize(
            "golden", Objective(quadratic(0.3)), Interval(0.0, 1.0), StopRule(budget=17)
        )
        assert res.n_evals == 17
        assert res.final_interval.lo <= res.x_min <= res.final_interval.hi


class TestFibonacci:
    def test_two_evaluations(self):
        # probes at the 1/3 and 2/3 points; keeps the left bracket on x^2
        res = minimize("fibonacci", Objective(lambda x: x * x), Interval(0.0, 3.0),
                       StopRule(budget=2))
        assert res.n_evals == 2
        assert res.n_iters == 1
        assert [x for x, _ in res.trace[0].probes] == [1.0, 2.0]
        assert res.final_interval == Interval(0.0, 2.0)
        assert res.x_min == 1.0

    def test_three_evaluations(self):
        # ladder from F(4): probes 0.4, 0.6, then 0.2; estimate lands on the
        # lattice point 0.2, exactly length/F(4) from the minimizer at 0
        res = minimize("fibonacci", Objective(lambda x: x * x), Interval(0.0, 1.0),
                       StopRule(budget=3))
        assert res.n_evals == 3
        assert res.n_iters == 2
        assert math.isclose(res.x_min, 0.2, rel_tol=1e-12)

    def test_exact_count_and_iterations(self):
        for n in (2, 3, 5, 10, 23, 40):
            obj = Objective(quadratic(0.7))
            res = minimize("fibonacci", obj, Interval(0.0, 2.0), StopRule(budget=n))
            assert res.n_evals == n == obj.count
            assert res.n_iters == n - 1

    def test_estimate_is_evaluated_point(self):
        res = minimize("fibonacci", Objective(quadratic(0.7)), Interval(0.0, 2.0),
                       StopRule(budget=12))
        probed = {x: f for ev in res.trace for x, f in ev.probes}
        assert res.x_min in probed
        assert probed[res.x_min] == res.f_min

    def test_error_bound(self):
        # the estimate is within length/F(n+1) of the minimizer
        for n in (2, 5, 10, 20, 40):
            res = minimize("fibonacci", Objective(quadratic(0.7)), Interval(0.0, 2.0),
                           StopRule(budget=n))
            assert abs(res.x_min - 0.7) <= 2.0 / _FIB[n + 1] * (1 + 1e-9)

    def test_rejects_bad_budgets(self):
        obj = Objective(lambda x: x * x)
        for bad in (1, 0, -3, 2.0, True, None):
            with pytest.raises(ValueError):
                minimize("fibonacci", obj, Interval(0.0, 1.0), StopRule(budget=bad))
        res = minimize("fibonacci", obj, Interval(0.0, 1.0), StopRule(budget=1401))
        assert res.n_evals == obj.count <= 1401

    @pytest.mark.parametrize("length,epsilon,n", [
        (2.0, 1e-6, 30),    # F(31) = 2178309 >= 2e6
        (1.0, 0.5, 2),      # F(3) = 3 suffices
        (3.0, 1.0, 2),
    ])
    def test_epsilon_plans_fewest_budget(self, length, epsilon, n):
        res = minimize("fibonacci", Objective(quadratic(0.3)), Interval(0.0, length),
                       StopRule(epsilon=epsilon))
        assert res.n_evals == n

    def test_planned_budget_definition(self):
        for tol in (1e-3, 1e-5, 1e-8):
            n = minimize("fibonacci", Objective(quadratic(0.7)), Interval(0.0, 2.0),
                         StopRule(epsilon=tol)).n_evals
            assert 2.0 / _FIB[n + 1] <= tol
            assert n == 2 or 2.0 / _FIB[n] > tol

    @given(interval_and_quadratic(), st.floats(1e-12, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_epsilon_run_is_the_planned_budget_run(self, case, epsilon):
        iv, f, _ = case
        by_eps = minimize("fibonacci", Objective(f), iv, StopRule(epsilon=epsilon))
        by_budget = minimize("fibonacci", Objective(f), iv, StopRule(budget=by_eps.n_evals))
        assert by_eps == by_budget    # trace included

    def test_no_accepted_budget_reaches_epsilon(self):
        # F(1475) ~ 1.3e308 is the last Fibonacci number float64 holds: below
        # 1/F(1475), length/F(N + 1) reaches epsilon only past it
        tol = 1.0 / _FIB[1475]
        obj = Objective(lambda x: x * x)
        with pytest.raises(ValueError, match="F\\(N \\+ 1\\) leaves float64"):
            minimize(Method.FIBONACCI, obj, Interval(0.0, 1.0),
                     StopRule(epsilon=math.nextafter(tol, 0.0)))
        assert obj.count == 0
        # 1/F(1475) itself plans N = 1474; the minimizer at the endpoint 0
        # keeps the bracket shrinking through the subnormals, so all of it is spent
        res = minimize(Method.FIBONACCI, obj, Interval(0.0, 1.0), StopRule(epsilon=tol))
        assert res.n_evals == obj.count == 1474

    def test_stages_from_43_on_round_to_one_pair(self):
        # the ladder repeats stage 43's pair for every stage m >= 43
        top = solvers._FIB_STAGES[43]
        assert len(solvers._FIB_STAGES) == 44
        assert all((_FIB[m - 2] / _FIB[m], _FIB[m - 1] / _FIB[m]) == top for m in range(43, 1501))
        assert (_FIB[40] / _FIB[42], _FIB[41] / _FIB[42]) != top
        assert solvers._FIB_STAGES[2:] == [(_FIB[m - 2] / _FIB[m], _FIB[m - 1] / _FIB[m])
                                           for m in range(2, 44)]

    def test_budget_above_the_stage_table_is_the_floor_run(self):
        # both budgets end at the float64 floor after 49 evaluations
        c = 1e6 + 0.3
        runs = [minimize("fibonacci", Objective(quadratic(c)), Interval(1e6, 1e6 + 1),
                         StopRule(budget=n)) for n in (1400, 5000)]
        assert runs[0] == runs[1]    # trace included
        assert runs[1].n_evals == 49

    def test_large_budget_on_a_wide_bracket_ends_at_the_floor(self):
        res = minimize("fibonacci", Objective(wall_after(quadratic(123.456), 10_000)),
                       Interval(-1e6, 1e6), StopRule(budget=5000))
        assert res.n_evals < 5000
        before, last = [ev.interval_after.length() for ev in res.trace[-2:]]
        assert not last < before


class TestMinimizeDispatch:
    def test_string_and_enum_agree(self):
        for method in Method:
            for stop in (StopRule(epsilon=0.25), StopRule(epsilon=1e-6), StopRule(budget=21)):
                args = (Interval(-1.0, 1.0), stop)
                by_str = minimize(method.value, Objective(lambda x: (x - 0.3) ** 2), *args)
                by_enum = minimize(method, Objective(lambda x: (x - 0.3) ** 2), *args)
                assert by_str == by_enum    # trace included

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            minimize("newton", Objective(lambda x: x), Interval(0.0, 1.0),
                     StopRule(epsilon=0.1))

    @pytest.mark.parametrize("value", ["nope", "GOLDEN", None, 3, b"golden", ["golden"]],
                             ids=repr)
    def test_not_a_method(self, value):
        # unhashable values too: the message is Method()'s, before any evaluation
        obj = Objective(lambda x: x)
        with pytest.raises(ValueError) as e:
            minimize(value, obj, Interval(0.0, 1.0), StopRule(epsilon=0.1))
        assert str(e.value) == f"{value!r} is not a valid Method"
        assert obj.count == 0

    def test_one_signature(self):
        # no method takes an argument of its own
        assert list(inspect.signature(minimize).parameters) == ["method", "obj", "iv", "stop"]


class TestMethodAsString:
    """A method prints, formats, serialises and compares as its value."""

    def test_text_forms(self):
        m = Method.GOLDEN
        assert str(m) == f"{m}" == "%s" % m == "golden"
        assert format(m, ">8") == "  golden"
        assert repr(m) == "<Method.GOLDEN: 'golden'>"

    def test_json(self):
        assert json.dumps(Method.GOLDEN) == '"golden"'
        assert json.dumps({Method.GOLDEN: 1}) == '{"golden": 1}'

    def test_identity_equality_hash_pickle(self):
        m = Method.GOLDEN
        assert Method("golden") is m
        assert m == "golden"
        assert hash(m) == hash("golden")
        assert pickle.loads(pickle.dumps(m)) is m


def _plateau(lo, hi=math.inf):
    """0 on [lo, hi] and 1 elsewhere: every probe ties with some other."""
    return lambda x: 0.0 if lo <= x <= hi else 1.0


class TestTieRules:
    """The first bracket each method keeps on [0, 1] when probes tie exactly."""

    @pytest.mark.parametrize("method, f, kept", [
        # f(x1) == f(x2): the left half
        ("halving", _plateau(0.0), (0.0, 0.5)),
        # f(x1) > f(x2) == f(x3): the middle half, not the right one
        ("halving", _plateau(0.4), (0.25, 0.75)),
        # f(x2) == f(x3), then f(x1) == f(x2): [a, x2]
        ("trichotomy", _plateau(0.0), (0.0, 1 / 3)),
        # f(x2) == f(x3), then f(x1) > f(x2): [x1, x3]
        ("trichotomy", _plateau(0.25), (1 / 6, 0.5)),
        # f(x2) > f(x3) == f(x4): moves right; then f(x5) == f(x4): [x4, b]
        ("trichotomy", _plateau(0.4), (2 / 3, 1.0)),
        # f(x4) == f(x3), then f(x5) > f(x4): [x3, x5]
        ("trichotomy", _plateau(0.4, 0.8), (0.5, 5 / 6)),
        # f(x_low) == f(x_high): [a, x_high]
        ("dichotomous", _plateau(0.0), (0.0, 0.5 + 1e-6 / 2)),
        ("golden", _plateau(0.0), (0.0, _INVPHI)),
        ("fibonacci", _plateau(0.0), (0.0, 0.625)),
    ])
    def test_first_bracket_on_a_tie(self, method, f, kept):
        res = minimize(method, Objective(f), Interval(0.0, 1.0), StopRule(budget=4))
        after = res.trace[0].interval_after
        assert (after.lo, after.hi) == kept


class TestSharedInvariants:
    EPSILON_METHODS = ("halving", "trichotomy", "dichotomous", "golden")

    @pytest.mark.parametrize("method", EPSILON_METHODS)
    def test_trace_nesting_and_counter(self, method):
        obj = Objective(quadratic(0.37, scale=3.0))
        res = minimize(method, obj, Interval(-2.0, 1.5), StopRule(epsilon=1e-4))
        assert res.n_evals == obj.count
        assert res.n_evals == sum(ev.evals_this_iter for ev in res.trace)
        assert res.n_iters == len(res.trace)
        assert [ev.iteration for ev in res.trace] == list(range(1, res.n_iters + 1))
        prev = Interval(-2.0, 1.5)
        for ev in res.trace:
            assert prev.lo <= ev.interval_after.lo
            assert ev.interval_after.hi <= prev.hi
            prev = ev.interval_after
        assert res.final_interval == res.trace[-1].interval_after
        assert res.final_interval.lo <= res.x_min <= res.final_interval.hi

    @pytest.mark.parametrize("method", EPSILON_METHODS)
    def test_probes_strictly_interior(self, method):
        res = minimize(method, Objective(quadratic(0.37)), Interval(-2.0, 1.5),
                       StopRule(epsilon=1e-4))
        for ev in res.trace:
            for x, _ in ev.probes:
                assert -2.0 < x < 1.5

    @pytest.mark.parametrize("method", EPSILON_METHODS)
    def test_deterministic(self, method):
        runs = [
            minimize(method, Objective(quadratic(0.37)), Interval(-2.0, 1.5),
                     StopRule(epsilon=1e-6))
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert runs[0].trace == runs[1].trace

    @pytest.mark.parametrize("method", ("halving", "trichotomy"))
    def test_constant_function_keeps_left(self, method):
        res = minimize(method, Objective(lambda x: 1.0), Interval(0.0, 1.0),
                       StopRule(epsilon=1e-3))
        assert res.final_interval.lo == 0.0

    # Exact shrink factors, measured at the resolution the endpoint
    # representation allows: two updates of coordinates at magnitude
    # max(|lo|, |hi|) can each slip by one ulp of that magnitude.
    @given(interval_and_quadratic())
    @settings(max_examples=150, deadline=None)
    def test_halving_ratio_and_caps(self, case):
        iv, f, _ = case
        res = minimize("halving", Objective(f), iv, StopRule(epsilon=1e-6))
        prev, prev_iv = iv.length(), iv
        for i, ev in enumerate(res.trace):
            cur = ev.interval_after.length()
            scale = max(abs(prev_iv.lo), abs(prev_iv.hi))
            assert abs(cur - prev / 2) <= 2 * math.ulp(scale)
            assert ev.evals_this_iter <= (3 if i == 0 else 2)
            prev, prev_iv = cur, ev.interval_after

    @given(interval_and_quadratic())
    @settings(max_examples=150, deadline=None)
    def test_trichotomy_ratio_and_caps(self, case):
        iv, f, _ = case
        res = minimize("trichotomy", Objective(f), iv, StopRule(epsilon=1e-6))
        prev, prev_iv = iv.length(), iv
        for i, ev in enumerate(res.trace):
            cur = ev.interval_after.length()
            scale = max(abs(prev_iv.lo), abs(prev_iv.hi))
            assert abs(cur - prev / 3) <= 2 * math.ulp(scale)
            assert ev.evals_this_iter <= (4 if i == 0 else 3)
            prev, prev_iv = cur, ev.interval_after

    @given(interval_and_quadratic())
    @settings(max_examples=150, deadline=None)
    def test_midpoint_incumbency(self, case):
        iv, f, _ = case
        for method in ("halving", "trichotomy"):
            res = minimize(method, Objective(f), iv, StopRule(epsilon=1e-6))
            fin = res.final_interval
            mid = fin.lo + (fin.hi - fin.lo) / 2
            slack = 4 * math.ulp(max(abs(mid), 1.0))
            assert abs(res.x_min - mid) <= slack

    @given(interval_and_quadratic(), st.integers(2, 60))
    @settings(max_examples=150, deadline=None)
    def test_budget_compliance(self, case, n):
        iv, f, _ = case
        stop = StopRule(budget=n)
        res = minimize("halving", Objective(f), iv, stop)
        assert n <= res.n_evals <= n + 1
        res = minimize("trichotomy", Objective(f), iv, stop)
        assert n <= res.n_evals <= n + 2
        res = minimize("golden", Objective(f), iv, stop)
        assert res.n_evals == n
        res = minimize("dichotomous", Objective(f), iv, stop)
        assert n - 2 <= res.n_evals <= n
        res = minimize("fibonacci", Objective(f), iv, stop)
        assert res.n_evals == n

    @pytest.mark.xfail(strict=True, reason=(
        "float64-floor budget fault, ROADMAP item 3a: the bracket stops shrinking "
        "one ulp wide, so trichotomy ends 1 evaluation short of its budget"))
    def test_budget_compliance_at_one_ulp(self):
        # a falsifying example of test_budget_compliance, which fails at
        # --hypothesis-seed=118
        c = -16.647920630638456
        iv = Interval(-16.710420630638456, -16.585420630638456)
        res = minimize("trichotomy", Objective(quadratic(c)), iv, StopRule(budget=60))
        assert 60 <= res.n_evals <= 62

    @given(interval_and_quadratic(), st.integers(2, 60))
    @settings(max_examples=100, deadline=None)
    def test_budget_trace_accounts_every_eval(self, case, n):
        iv, f, _ = case
        for method in ("halving", "trichotomy", "golden"):
            obj = Objective(f)
            res = minimize(method, obj, iv, StopRule(budget=n))
            assert res.n_evals == obj.count
            assert res.n_evals == sum(ev.evals_this_iter for ev in res.trace)


def check_nested(iv, trace):
    """Every event's bracket is non-empty and nested in the one before it,
    the first in ``iv``."""
    before = iv
    for ev in trace:
        after = ev.interval_after
        assert after.lo < after.hi
        assert before.lo <= after.lo and after.hi <= before.hi
        before = after


def check_trace(iv, trace):
    """Numbered iterations, nested non-empty brackets, and every probe
    strictly inside the bracket its iteration started from."""
    assert [ev.iteration for ev in trace] == list(range(1, len(trace) + 1))
    check_nested(iv, trace)
    before = iv
    for ev in trace:
        for x, _ in ev.probes:
            assert before.lo < x < before.hi
        before = ev.interval_after


class TestEngineInvariants:
    """What the two iteration loops guarantee for every method and stop.

    Brackets, tolerances and budgets stay well above the float64 floor.
    """

    @given(
        interval_and_quadratic(),
        st.sampled_from(list(Method)),
        st.floats(1e-9, 1e-1) | st.integers(2, 50),    # epsilon or budget stop
        st.none() | st.integers(1, 40),                 # first call returning NaN
    )
    @settings(max_examples=400, deadline=None)
    def test_accounting_nesting_and_interior_probes(self, case, method, limit, nan_at):
        iv, f, _ = case
        stop = StopRule(budget=limit) if isinstance(limit, int) else StopRule(epsilon=limit)
        obj = Objective(nan_at_call(f, nan_at))
        try:
            res = minimize(method, obj, iv, stop)
        except NonFiniteValue as e:
            assert obj.count == nan_at
            # the failing call counts but is not a probe of the trace
            assert sum(ev.evals_this_iter for ev in e.partial_trace) == obj.count - 1
            check_trace(iv, e.partial_trace)
            return
        assert res.n_evals == obj.count == sum(ev.evals_this_iter for ev in res.trace)
        assert res.n_iters == len(res.trace)
        check_trace(iv, res.trace)
        assert res.final_interval == res.trace[-1].interval_after
        assert res.final_interval.lo <= res.x_min <= res.final_interval.hi


def count_calls(monkeypatch, owner, name) -> list:
    """Wrap ``owner.name`` so that each call appends its arguments to the
    returned list, as ``perfbench/tracer.py`` wraps the layers it times."""
    calls, original = [], getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestLazyTraceBuilds:
    """What a run builds before and after its trace is read.  The traced
    benchmark counts ``solvers.TraceEvent`` and ``solvers.Interval`` calls and
    divides by them, so an unread run must still build its last event."""

    @pytest.mark.parametrize("stop", [StopRule(epsilon=1e-6), StopRule(budget=20)])
    @pytest.mark.parametrize("method", list(Method))
    def test_one_event_until_read(self, monkeypatch, method, stop):
        events = count_calls(monkeypatch, solvers, "TraceEvent")
        intervals = count_calls(monkeypatch, solvers, "Interval")
        evaluations = count_calls(monkeypatch, Objective, "evaluate")
        obj = Objective(quadratic(0.3))
        res = minimize(method, obj, Interval(0.0, 1.0), stop)
        assert len(events) == len(intervals) == 1
        assert len(evaluations) == res.n_evals == obj.count
        assert len(res.trace) == res.n_iters > 1
        assert len(events) == len(intervals) == res.n_iters
        assert len(evaluations) == res.n_evals

    @pytest.mark.parametrize("method", list(Method))
    def test_pending_trace_does_not_keep_the_objective(self, method):
        obj = Objective(quadratic(0.3))
        alive = weakref.ref(obj)
        res = minimize(method, obj, Interval(0.0, 1.0), StopRule(budget=20))
        del obj
        gc.collect()
        assert alive() is None
        assert len(res.trace) == res.n_iters


class TestRunRecordAtFloor:
    """The run record where the float64 floor ends runs: brackets a few ulps
    wide stop shrinking, and an iteration that leaves no smaller non-empty
    bracket ends the run, as an event on the bracket it started from; answer
    probes fold into the last event, and a non-finite value cuts an
    iteration short.  Probes may touch an endpoint here (a known fault), so
    only the accounting and the nesting of the brackets are checked."""

    @pytest.mark.parametrize("nan_at", [None, 3, 30, 53, 61, 70])    # first NaN call
    @pytest.mark.parametrize("limit", [1e-12, 100])
    @pytest.mark.parametrize("lo,hi", [(1e6, 1e6 + 1), (-(1e6 + 1), -1e6), (1e15, 1e15 + 8)])
    @pytest.mark.parametrize("method", list(Method))
    def test_accounting(self, method, lo, hi, limit, nan_at):
        iv = Interval(lo, hi)
        stop = StopRule(budget=limit) if isinstance(limit, int) else StopRule(epsilon=limit)
        obj = Objective(nan_at_call(quadratic(lo + 0.3 * (hi - lo)), nan_at))
        try:
            res = minimize(method, obj, iv, stop)
        except NonFiniteValue as e:
            trace = e.partial_trace
            assert obj.count == nan_at
            # the failing call counts but is not a probe of the trace
            assert sum(ev.evals_this_iter for ev in trace) == obj.count - 1
            assert all(ev.evals_this_iter == len(ev.probes) for ev in trace)
            assert [ev.iteration for ev in trace] == list(range(1, len(trace) + 1))
            check_nested(iv, trace)
            return
        assert res.n_evals == obj.count == sum(ev.evals_this_iter for ev in res.trace)
        assert all(ev.evals_this_iter == len(ev.probes) for ev in res.trace)
        assert [ev.iteration for ev in res.trace] == list(range(1, res.n_iters + 1))
        check_nested(iv, res.trace)
        assert res.final_interval == res.trace[-1].interval_after
        assert res.final_interval.lo <= res.x_min <= res.final_interval.hi


class TestTwoProbeExits:
    """Where golden section and Fibonacci end at the float64 floor: an
    iteration that leaves no smaller non-empty bracket ends the run, as an
    event on the bracket it started from.  The objective raises Wall after
    10,000 calls, so a loop that lost its floor stop fails here rather than
    running on."""

    def test_golden_epsilon_stops_at_the_floor(self):
        # floor stop after 76 probes, then the answer probe
        res = minimize("golden", Objective(wall_after(quadratic(1.3), 10_000)),
                       Interval(1.0, 2.0), StopRule(epsilon=1e-300))
        assert (res.n_evals, res.n_iters) == (77, 75)
        before, last = [ev.interval_after.length() for ev in res.trace[-2:]]
        assert not last < before
        assert res.x_min == (res.final_interval.lo + res.final_interval.hi) / 2

    def test_golden_budget_stops_at_the_floor(self):
        res = minimize("golden", Objective(wall_after(quadratic(1.3), 10_000)),
                       Interval(1.0, 2.0), StopRule(budget=400))
        assert (res.n_evals, res.n_iters) == (76, 75)
        before, last = [ev.interval_after.length() for ev in res.trace[-2:]]
        assert not last < before

    def test_fibonacci_stops_at_the_floor(self):
        c = 1e6 + 0.3
        res = minimize("fibonacci", Objective(wall_after(quadratic(c), 10_000)),
                       Interval(1e6, 1e6 + 1), StopRule(budget=1400))
        assert (res.n_evals, res.n_iters) == (49, 48)
        before, last = [ev.interval_after.length() for ev in res.trace[-2:]]
        assert not last < before
        assert res.x_min == c


def record_runs(monkeypatch) -> list:
    """Every run record that ``minimize`` opens from now on, in order; a run
    that raises leaves its record here too."""
    runs = []

    class Recorded(solvers._Run):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            runs.append(self)

    monkeypatch.setattr(solvers, "_Run", Recorded)
    return runs


def check_marks(iv, marks, n_evals):
    """Mark 0 is ``iv`` with end 0; the ends strictly increase to
    ``n_evals``; each event's bracket is nested and strictly shorter than
    the one of the mark before it, or repeats it as the run's last event."""
    assert marks[0] == (iv.lo, iv.hi, 0)
    ends = [end for _, _, end in marks]
    assert all(a < b for a, b in pairwise(ends))
    assert ends[-1] == n_evals
    for i, ((lo0, hi0, _), (lo, hi, _)) in enumerate(pairwise(marks), 1):
        if (lo, hi) == (lo0, hi0):
            assert i == len(marks) - 1
        else:
            assert lo0 <= lo < hi <= hi0 and hi - lo < hi0 - lo0


class TestRunRecord:
    """The run record of every method under both stop kinds: mark 0 is the
    input bracket with end 0, then one mark per event, so event i runs from
    mark i-1 to mark i.  An event that repeats the bracket of the mark before
    it ends the run, at the float64 floor or where a non-finite value cut
    its iteration short."""

    KINDS = ["epsilon", "budget", "floor-epsilon", "floor-budget"]

    @staticmethod
    def _run(kind):
        """``(f, iv, stop)`` of the run ``kind``: a floor run ends at the
        float64 floor, the others well above it."""
        if not kind.startswith("floor"):
            stop = StopRule(epsilon=1e-6) if kind == "epsilon" else StopRule(budget=20)
            return quadratic(0.3), Interval(0.0, 1.0), stop
        stop = StopRule(epsilon=1e-300) if kind == "floor-epsilon" else StopRule(budget=1400)
        return quadratic(1e6 + 0.3), Interval(1e6, 1e6 + 1), stop

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("method", list(Method))
    def test_finished_run(self, monkeypatch, method, kind):
        f, iv, stop = self._run(kind)
        runs = record_runs(monkeypatch)
        res = minimize(method, Objective(f), iv, stop)
        [run] = runs
        marks = run.marks
        assert solvers._trace_record(res) == (run.log, marks)
        check_marks(iv, marks, res.n_evals)
        assert len(marks) == res.n_iters + 1
        # a floor run ends with an event on the bracket of the mark before it
        repeats = marks[-1][:2] == marks[-2][:2]
        assert repeats == kind.startswith("floor")

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("method", list(Method))
    def test_run_cut_by_nan(self, monkeypatch, method, kind):
        f, iv, stop = self._run(kind)
        runs = record_runs(monkeypatch)
        clean = minimize(method, Objective(f), iv, stop)
        full = runs[0].marks
        cuts = 0
        for k in range(1, clean.n_evals + 1):     # NaN at call k
            with pytest.raises(NonFiniteValue) as info:
                minimize(method, Objective(nan_at_call(f, k)), iv, stop)
            marks = runs[-1].marks
            check_marks(iv, marks, k - 1)
            trace = info.value.partial_trace
            assert [(ev.interval_after.lo, ev.interval_after.hi) for ev in trace] == \
                   [(lo, hi) for lo, hi, _ in marks[1:]]
            if k == 1:      # at the opening probe: the record holds mark 0 alone
                assert marks == [(iv.lo, iv.hi, 0)]
                assert trace == ()
            *closed, (lo, hi, _) = marks
            assert closed == full[:len(closed)]
            if (lo, hi) != full[len(closed)][:2]:
                # the iteration cut short: an event on the bracket it started from
                assert (lo, hi) == closed[-1][:2]
                cuts += 1
        assert cuts


class TestOverflowingProbes:
    """Brackets that Interval accepts but whose probe sums, such as (a + b)/2,
    overflow float64: the probe raises ValueError before the objective sees it.
    Golden section under a budget and Fibonacci probe at a + t*(b - a), which
    stays finite, so they still finish."""

    @pytest.mark.parametrize("lo,hi,f", [
        (0.0, 1e308, lambda x: -min(x, 1e308) * 1e-308),
        (1e308, 1.5e308, lambda x: abs(x - 1.2e308)),
    ], ids=["0-1e308", "1e308-1.5e308"])
    @pytest.mark.parametrize("method,limit", [
        (m, limit) for m in Method for limit in (1e300, 40)
        if m is not Method.FIBONACCI or limit == 40
    ])
    def test_probe_overflow_raises(self, method, limit, lo, hi, f):
        stop = StopRule(budget=limit) if isinstance(limit, int) else StopRule(epsilon=limit)
        seen = []

        def fn(x):
            seen.append(x)
            return f(x)

        run = lambda: minimize(method, Objective(fn), Interval(lo, hi), stop)
        if method is Method.FIBONACCI or (method is Method.GOLDEN and stop.budget is not None):
            res = run()
            assert math.isfinite(res.x_min)
            assert res.final_interval.lo <= res.x_min <= res.final_interval.hi
        else:
            with pytest.raises(ValueError, match="overflow") as info:
                run()
            assert not isinstance(info.value, NonFiniteValue)
        assert all(math.isfinite(x) for x in seen)


class TestNonFiniteHandling:
    def test_partial_trace_attached(self):
        def f(x):
            return math.nan if x == 0.25 else (x - 0.6) ** 2

        with pytest.raises(NonFiniteValue) as info:
            minimize("halving", Objective(f), Interval(0.0, 1.0), StopRule(epsilon=1e-3))
        assert info.value.x == 0.25
        assert info.value.partial_trace
        assert info.value.partial_trace[0].probes[0][0] == 0.5
        # a partial trace has the type of a finished one
        assert type(info.value.partial_trace) is tuple
        res = minimize("halving", Objective(quadratic(0.6)), Interval(0.0, 1.0),
                       StopRule(epsilon=1e-3))
        assert type(res.trace) is tuple

    @pytest.mark.parametrize("stop", [StopRule(epsilon=0.1), StopRule(budget=10)])
    @pytest.mark.parametrize("method", list(Method))
    def test_failure_on_first_probe(self, method, stop):
        # the opening probe belongs to no event yet: the partial trace is empty
        obj = Objective(lambda x: math.inf)
        with pytest.raises(NonFiniteValue) as info:
            minimize(method, obj, Interval(0.0, 1.0), stop)
        assert info.value.partial_trace == ()
        assert obj.count == 1

    @pytest.mark.parametrize("method, stop", [
        ("dichotomous", StopRule(epsilon=1e-6)),
        ("dichotomous", StopRule(budget=21)),
        ("golden", StopRule(epsilon=1e-6)),
    ])
    def test_failure_at_answer_probe(self, method, stop):
        # the answer probe is the run's last evaluation; when it fails, the
        # partial trace is the clean trace without that probe
        f, iv = quadratic(0.3), Interval(0.0, 1.0)
        clean = minimize(method, Objective(f), iv, stop)
        *head, last = clean.trace
        assert last.probes[-1] == (clean.x_min, clean.f_min)
        obj = Objective(nan_at_call(f, clean.n_evals))
        with pytest.raises(NonFiniteValue) as info:
            minimize(method, obj, iv, stop)
        assert info.value.partial_trace == (
            *head, TraceEvent(last.iteration, last.interval_after,
                              last.evals_this_iter - 1, last.probes[:-1]))
        assert obj.count == clean.n_evals


class TestOtherObjectiveExceptions:
    # the contract: only NonFiniteValue is handled; any other exception from
    # the function propagates unchanged, without a trace, and the Objective
    # still counts the evaluations paid before it
    @pytest.mark.parametrize("method", list(Method))
    def test_propagates_without_trace(self, method):
        obj = Objective(lambda x: 1 / 0 if x < 0.3 else x)
        with pytest.raises(ZeroDivisionError) as info:
            minimize(method, obj, Interval(0.0, 1.0), StopRule(budget=20))
        assert not hasattr(info.value, "partial_trace")
        assert obj.count >= 1


class Wall(Exception):
    """The caller's own hard stop, raised from the function."""


def wall_after(f, n):
    """``f``, except that every call after the first ``n`` raises Wall."""
    calls = [0]

    def fn(x):
        calls[0] += 1
        if calls[0] > n:
            raise Wall
        return f(x)

    return fn


class TestCallerWall:
    # a hard wall on evaluations is an exception the caller raises from the
    # function; it ends the run wherever it falls, and Objective.count reports
    # exactly the evaluations paid before it
    @pytest.mark.parametrize("method", list(Method))
    def test_wall_stops_mid_run(self, method):
        obj = Objective(wall_after(quadratic(1.1), 7))
        with pytest.raises(Wall) as info:
            minimize(method, obj, Interval(0.0, 2.0), StopRule(budget=20))
        assert not hasattr(info.value, "partial_trace")
        assert obj.count == 7

    @pytest.mark.parametrize("method", list(Method))
    def test_wall_on_first_probe_propagates(self, method):
        obj = Objective(wall_after(lambda x: x * x, 0))
        with pytest.raises(Wall):
            minimize(method, obj, Interval(0.0, 1.0), StopRule(budget=10))
        assert obj.count == 0


class TestRunIsolation:
    """One Objective across runs: each run passes its own probe log to every
    evaluation, so counts add up, runs may nest, and a finished run's record
    never changes, whatever the Objective does afterwards."""

    @staticmethod
    def switchable():
        """A quadratic whose later calls can be set to return NaN or raise Wall."""
        mode = ["ok"]

        def fn(x):
            if mode[0] == "nan":
                return math.nan
            if mode[0] == "wall":
                raise Wall
            return (x - 0.3) ** 2

        return fn, mode

    @pytest.mark.parametrize("method", list(Method))
    def test_sequential_runs_match_fresh_runs(self, method):
        iv, stops = Interval(0.0, 1.0), (StopRule(budget=20), StopRule(epsilon=1e-6))
        fn, mode = self.switchable()
        obj = Objective(fn)
        results, counts = [], []
        for stop in stops:
            results.append(minimize(method, obj, iv, stop))
            counts.append(obj.count)
        fresh = [minimize(method, Objective(fn), iv, stop) for stop in stops]
        assert counts == [fresh[0].n_evals, fresh[0].n_evals + fresh[1].n_evals]
        records = [solvers._trace_record(res) for res in results]
        want = [solvers._trace_record(res) for res in fresh]
        assert records == want
        obj.evaluate(0.25)                  # a direct call after the runs
        mode[0] = "nan"
        with pytest.raises(NonFiniteValue):
            minimize(method, obj, iv, stops[0])
        mode[0] = "wall"
        with pytest.raises(Wall):
            minimize(method, obj, iv, stops[0])
        assert records == want
        assert [res.trace for res in results] == [res.trace for res in fresh]
        mode[0] = "ok"                      # the failed runs left nothing behind
        again = minimize(method, obj, iv, stops[0])
        assert again.trace == fresh[0].trace

    @pytest.mark.parametrize("method", list(Method))
    def test_a_run_inside_its_objectives_function_keeps_its_own_record(self, method):
        # the Objective holds no log: the outer run and the nested one, which
        # starts on the outer run's first call, each record their own probes
        iv, stop = Interval(0.0, 1.0), StopRule(budget=20)
        f, inner = quadratic(0.3), []

        def fn(x):
            if not inner:
                inner.append(None)          # set first: the nested run does not nest again
                inner[0] = minimize(method, obj, iv, stop)
            return f(x)

        obj = Objective(fn)
        outer = minimize(method, obj, iv, stop)
        fresh = minimize(method, Objective(f), iv, stop)
        assert outer.trace == fresh.trace and inner[0].trace == fresh.trace
        assert obj.count == outer.n_evals + inner[0].n_evals

    def test_a_direct_call_during_a_run_stays_out_of_its_record(self):
        iv, stop = Interval(0.0, 1.0), StopRule(budget=10)
        f, called = quadratic(0.3), []

        def fn(x):
            if not called:
                called.append(None)         # set first: the direct call does not call again
                obj.evaluate(0.9)
            return f(x)

        obj = Objective(fn)
        res = minimize(Method.GOLDEN, obj, iv, stop)
        assert res.n_evals == 10
        assert res.trace == minimize(Method.GOLDEN, Objective(f), iv, stop).trace
        assert obj.count == 11
