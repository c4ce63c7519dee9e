"""Solver behavior: hand-traced runs, invariants, and budget semantics.

The frozen numbers in the pinned tests were derived by hand-tracing the
update rules on dyadic-friendly inputs (so float arithmetic is exact) before
the solvers were written.
"""
import json
import math
import pickle

import pytest
from hypothesis import assume, given, settings, strategies as st

from unisearch.core import (
    IncompatibleStopRule,
    Interval,
    NonFiniteValue,
    Objective,
    StopRule,
)
from unisearch.solvers import Method, fibonacci_budget_for, minimize

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
        assert res.n_evals < 400
        # cos is flat to double precision within ~1.5e-8 of pi, so comparisons
        # stop carrying information there; the estimate cannot be sharper
        assert abs(res.x_min - math.pi) < 1e-7
        assert res.final_interval.lo < res.final_interval.hi


class TestDichotomousPinned:
    def test_single_iteration_length(self):
        # keeps [a, m + delta/2]: length 1 + delta/2 = 1.005
        res = minimize(
            "dichotomous", Objective(lambda x: x * x), Interval(-1.0, 1.0),
            StopRule(epsilon=0.51), delta=0.01,
        )
        assert res.n_iters == 1
        assert math.isclose(res.final_interval.length(), 1.005, abs_tol=1e-15)
        assert res.n_evals == 3    # one pair plus the answer probe
        fin = res.final_interval
        assert res.x_min == (fin.lo + fin.hi) / 2

    def test_delta_validation(self):
        obj = Objective(lambda x: x * x)
        with pytest.raises(ValueError):
            minimize("dichotomous", obj, Interval(0.0, 1.0), StopRule(epsilon=0.1),
                     delta=0.25)
        with pytest.raises(ValueError):
            minimize("dichotomous", obj, Interval(0.0, 1.0), StopRule(epsilon=0.1),
                     delta=0.0)

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
        assert res.final_interval.contains(res.x_min)


class TestGoldenSection:
    def test_answer_is_final_midpoint(self):
        res = minimize(
            "golden", Objective(quadratic(0.3)), Interval(0.0, 1.0), StopRule(epsilon=1e-3)
        )
        assert res.x_min == res.final_interval.midpoint()
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
        assert res.final_interval.contains(res.x_min)


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
        fib = [1, 1]
        while len(fib) < 45:
            fib.append(fib[-1] + fib[-2])
        for n in (2, 5, 10, 20, 40):
            res = minimize("fibonacci", Objective(quadratic(0.7)), Interval(0.0, 2.0),
                           StopRule(budget=n))
            assert abs(res.x_min - 0.7) <= 2.0 / fib[n + 1] * (1 + 1e-9)

    def test_rejects_bad_budgets(self):
        obj = Objective(lambda x: x * x)
        for bad in (1, 0, -3, 2.0, True, None):
            with pytest.raises(ValueError):
                minimize("fibonacci", obj, Interval(0.0, 1.0), StopRule(budget=bad))
        with pytest.raises(ValueError):
            minimize("fibonacci", obj, Interval(0.0, 1.0), StopRule(budget=1401))

    def test_requires_budget_stop_rule(self):
        with pytest.raises(IncompatibleStopRule):
            minimize(Method.FIBONACCI, Objective(lambda x: x * x),
                     Interval(0.0, 1.0), StopRule(epsilon=0.1))


class TestMinimizeDispatch:
    def test_string_and_enum_agree(self):
        args = (Interval(-1.0, 1.0), StopRule(epsilon=0.25))
        by_str = minimize("halving", Objective(lambda x: x * x), *args)
        by_enum = minimize(Method.HALVING, Objective(lambda x: x * x), *args)
        assert by_str == by_enum

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            minimize("newton", Objective(lambda x: x), Interval(0.0, 1.0),
                     StopRule(epsilon=0.1))

    def test_delta_only_for_dichotomous(self):
        with pytest.raises(ValueError):
            minimize(Method.HALVING, Objective(lambda x: x * x),
                     Interval(0.0, 1.0), StopRule(epsilon=0.1), delta=0.01)


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
        assert res.final_interval.contains(res.x_min)

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
            mid = res.final_interval.midpoint()
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

    @given(interval_and_quadratic(), st.integers(2, 60))
    @settings(max_examples=100, deadline=None)
    def test_budget_trace_accounts_every_eval(self, case, n):
        iv, f, _ = case
        for method in ("halving", "trichotomy", "golden"):
            obj = Objective(f)
            res = minimize(method, obj, iv, StopRule(budget=n))
            assert res.n_evals == obj.count
            assert res.n_evals == sum(ev.evals_this_iter for ev in res.trace)


def check_trace(iv, trace):
    """Numbered iterations, nested brackets, and every probe strictly inside
    the bracket its iteration started from."""
    assert [ev.iteration for ev in trace] == list(range(1, len(trace) + 1))
    before = iv
    for ev in trace:
        for x, _ in ev.probes:
            assert before.lo < x < before.hi
        after = ev.interval_after
        assert before.lo <= after.lo and after.hi <= before.hi
        before = after


class TestEngineInvariants:
    """What the shared iteration engine guarantees for every method and stop.

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
        if isinstance(limit, int):
            stop = StopRule(budget=limit)
        else:
            assume(method is not Method.FIBONACCI)
            stop = StopRule(epsilon=limit)
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
        assert res.final_interval.contains(res.x_min)


class TestRunRecordAtFloor:
    """The run record where the float64 floor ends runs: brackets a few ulps
    wide collapse, answer probes fold into the last event, and a non-finite
    value cuts an iteration short.  Probes may touch an endpoint here (a known
    fault), so only the accounting is checked."""

    @pytest.mark.parametrize("nan_at", [None, 3, 30, 53, 61, 70])    # first NaN call
    @pytest.mark.parametrize("limit", [1e-12, 100])
    @pytest.mark.parametrize("lo,hi", [(1e6, 1e6 + 1), (-(1e6 + 1), -1e6), (1e15, 1e15 + 8)])
    @pytest.mark.parametrize("method", list(Method))
    def test_accounting(self, method, lo, hi, limit, nan_at):
        iv = Interval(lo, hi)
        if isinstance(limit, int):
            stop = StopRule(budget=limit)
        elif method is Method.FIBONACCI:    # the budget that reaches epsilon
            stop = StopRule(budget=fibonacci_budget_for(iv.length(), limit))
        else:
            stop = StopRule(epsilon=limit)
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
            return
        assert res.n_evals == obj.count == sum(ev.evals_this_iter for ev in res.trace)
        assert all(ev.evals_this_iter == len(ev.probes) for ev in res.trace)
        assert [ev.iteration for ev in res.trace] == list(range(1, res.n_iters + 1))
        assert res.final_interval == res.trace[-1].interval_after
        assert res.final_interval.contains(res.x_min)


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
            assert res.final_interval.contains(res.x_min)
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

    def test_failure_on_first_probe(self):
        with pytest.raises(NonFiniteValue) as info:
            minimize("trichotomy", Objective(lambda x: math.inf),
                     Interval(0.0, 1.0), StopRule(epsilon=0.1))
        assert info.value.partial_trace == ()


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
