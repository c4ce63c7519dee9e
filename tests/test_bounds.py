"""Iteration-count and accuracy guarantees, and the worst-case bounds runs attain."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unisearch.bounds import IterationBound, accuracy_bound, iteration_bound
from unisearch.core import Interval, Objective, StopRule
from unisearch.solvers import Method, minimize


class TestIterationBound:
    def test_halving_unit_bracket(self):
        b = iteration_bound(Method.HALVING, 1.0, 0.1)
        assert b == IterationBound(k_formula=3, k_exact=3)

    def test_trichotomy_unit_bracket(self):
        b = iteration_bound(Method.TRICHOTOMY, 1.0, 0.1)
        assert b.k_formula == 2
        assert b.k_exact == 2

    def test_formula_overcounts_at_exact_powers(self):
        # ratio 4 = 2^2: floor(log)+1 gives 3 but 2 iterations suffice
        b = iteration_bound("halving", 8.0, 1.0)
        assert b.k_formula == 3
        assert b.k_exact == 2
        b = iteration_bound("trichotomy", 18.0, 1.0)
        assert b.k_formula == 3
        assert b.k_exact == 2

    @pytest.mark.parametrize("method, base, top", [("halving", 2, 1023), ("trichotomy", 3, 33)])
    def test_exact_at_every_power_and_its_neighbours(self, method, base, top):
        # length/(2*0.5) is the length itself, and base**k is a float64 up to
        # top; the float log of such a power can land just off k, which
        # neither count may follow
        for k in range(1, top + 1):
            power = float(base**k)
            below, above = math.nextafter(power, 0.0), math.nextafter(power, math.inf)
            assert iteration_bound(method, below, 0.5) == IterationBound(k, k)
            assert iteration_bound(method, power, 0.5) == IterationBound(k + 1, k)
            assert iteration_bound(method, above, 0.5) == IterationBound(k + 1, k + 1)

    def test_accepts_method_strings(self):
        assert iteration_bound("halving", 1.0, 0.1) == iteration_bound(
            Method.HALVING, 1.0, 0.1
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            iteration_bound(Method.HALVING, 1.0, 0.5)    # ratio exactly 1
        with pytest.raises(ValueError):
            iteration_bound(Method.HALVING, 1.0, 0.8)    # ratio below 1
        for bad_len in (0.0, -1.0, math.inf, math.nan, True):
            with pytest.raises(ValueError):
                iteration_bound(Method.HALVING, bad_len, 0.1)
        for bad_eps in (0.0, -0.1, math.inf, math.nan):
            with pytest.raises(ValueError):
                iteration_bound(Method.HALVING, 1.0, bad_eps)
        with pytest.raises(ValueError):
            iteration_bound(Method.HALVING, 1e308, 1e-308)   # ratio overflows

    def test_rejects_other_methods(self):
        with pytest.raises(ValueError):
            iteration_bound(Method.GOLDEN, 1.0, 0.1)
        with pytest.raises(ValueError):
            iteration_bound("fibonacci", 1.0, 0.1)

    @given(st.floats(0.5, 1e4), st.floats(1e-6, 0.2))
    @settings(max_examples=200, deadline=None)
    def test_exact_count_matches_simulation(self, length, epsilon):
        if length / (2 * epsilon) <= 1:
            return
        for method, beta in ((Method.HALVING, 2.0), (Method.TRICHOTOMY, 3.0)):
            k = 0
            half = length / 2
            while half > epsilon:
                half /= beta
                k += 1
            b = iteration_bound(method, length, epsilon)
            # the simulation's own rounding of half /= beta can move its count
            # across an exact power; iteration_bound is exact within that slack
            assert abs(b.k_exact - k) <= 1
            assert b.k_formula >= b.k_exact


class TestAccuracyBound:
    def test_halving_frozen_value(self):
        b = accuracy_bound(Method.HALVING, 2.0, 10)
        # L / (2 * 2^((10-1)/2)) with L = 2
        assert b == 0.044194173824159216

    def test_trichotomy_frozen_value(self):
        b = accuracy_bound(Method.TRICHOTOMY, 2.0, 10)
        assert b == 3.0**-2.25
        assert math.isclose(b, 0.0844261872946214, rel_tol=1e-15)

    def test_single_evaluation_gives_half_length(self):
        for method in (Method.HALVING, Method.TRICHOTOMY):
            assert accuracy_bound(method, 2.0, 1) == 1.0

    def test_halving_dominates_for_more_than_one_eval(self):
        # same budget, tighter guarantee -- strictly, for every n > 1
        for n in range(2, 101):
            h = accuracy_bound(Method.HALVING, 1.0, n)
            t = accuracy_bound(Method.TRICHOTOMY, 1.0, n)
            assert h < t

    def test_domain_errors(self):
        for bad_n in (0, -1, 2.0, True):
            with pytest.raises(ValueError):
                accuracy_bound(Method.HALVING, 1.0, bad_n)
        with pytest.raises(ValueError):
            accuracy_bound(Method.HALVING, -1.0, 10)
        with pytest.raises(ValueError):    # True is an int, not a length of 1
            accuracy_bound(Method.HALVING, True, 3)
        with pytest.raises(ValueError):
            accuracy_bound(Method.HALVING, 1.0, 100000)      # 2**49999.5 overflows
        with pytest.raises(ValueError):
            accuracy_bound(Method.HALVING, 1e-300, 1000)     # the bound underflows to 0
        with pytest.raises(ValueError):
            accuracy_bound(Method.DICHOTOMOUS, 1.0, 10)

    def test_result_is_a_plain_float(self):
        b = accuracy_bound(Method.HALVING, 2.0, 10)
        assert type(b) is float and b == 0.044194173824159216

    def test_numpy_inputs_are_their_python_numbers(self):
        # each bound computes with the Python number its input equals: the
        # same value, or the same message; a float32 length once gave a float32
        # bound and a NumPy count was refused
        def outcome(bound, *args):
            try:
                return repr(bound(*args))
            except ValueError as e:
                return str(e)

        calls = [
            (accuracy_bound, Method.HALVING, np.float32(0.1), np.int64(10)),
            (accuracy_bound, Method.TRICHOTOMY, np.float32(2.0), np.uint8(10)),
            (accuracy_bound, Method.HALVING, np.float32(1e-30), np.int64(2000)),
            (accuracy_bound, Method.HALVING, np.float64(1.0), np.int32(1)),
            (iteration_bound, Method.HALVING, np.float32(0.1), np.float64(1e-3)),
            (iteration_bound, Method.TRICHOTOMY, np.float32(1e30), np.float64(1e-300)),
            (iteration_bound, Method.HALVING, np.float32(1.0), np.float32(0.5)),
        ]
        for bound, method, *args in calls:
            python = [float(a) if isinstance(a, np.floating) else int(a) for a in args]
            assert outcome(bound, method, *args) == outcome(bound, method, *python)
        assert type(accuracy_bound(Method.HALVING, np.float32(0.1), 10)) is float

    def test_refuses_numpy_bools_and_lengths_beyond_float64(self):
        # a length above the largest float64 and a NumPy bool were once taken
        for bad in (10**400, np.True_):
            with pytest.raises(ValueError):
                accuracy_bound(Method.HALVING, bad, 10)
            with pytest.raises(ValueError):
                iteration_bound(Method.HALVING, bad, 0.1)
        with pytest.raises(ValueError):
            accuracy_bound(Method.HALVING, 1.0, np.True_)

    @pytest.mark.parametrize("method", [Method.HALVING, Method.TRICHOTOMY])
    def test_bound_holds_for_actual_runs(self, method):
        for n in (4, 7, 10, 15, 20):
            bound = accuracy_bound(method, 2.0, n)
            res = minimize(method, Objective(lambda x: (x - 1.1) ** 2), Interval(0.0, 2.0),
                           StopRule(budget=n))
            assert abs(res.x_min - 1.1) <= bound


_FIB = [1, 1]                       # F(0) = F(1) = 1
while len(_FIB) <= 1500:
    _FIB.append(_FIB[-1] + _FIB[-2])


def halving_attained(length, n):
    """L/(2*2^ceil((N-1)/2)), halving's worst-case error at budget N."""
    return length / (2 * 2 ** (n // 2))


def trichotomy_attained(length, n):
    """L/(2*3^ceil((N-1)/3)), trichotomy's worst-case error at budget N."""
    return length / (2 * 3 ** ((n + 1) // 3))


def dichotomous_attained(length, n):
    """Dichotomous search's worst-case error at budget N: its p = floor(N/2)
    pairs with offset delta = L*1e-6 leave a bracket of length
    L_p = L/2^p + delta*(1 - 2^-p); an odd N pays the answer probe at its
    midpoint, within L_p/2, and an even N answers the better pair probe,
    within L_p."""
    p = n // 2
    final = length / 2 ** p + length * 1e-6 * (1 - 2.0 ** -p)
    return final / 2 if n % 2 else final


@st.composite
def bracket_and_minimizer(draw):
    """A finite bracket well above the float64 floor and the minimizer c of
    |x - c|^p, drawn at an endpoint two times in three."""
    lo = draw(st.floats(-100, 100))
    iv = Interval(lo, lo + draw(st.floats(1e-3, 1e3)))
    where = draw(st.sampled_from(("lo", "hi", "inside")))
    if where == "inside":
        c = min(iv.lo + draw(st.floats(0, 1)) * iv.length(), iv.hi)
    else:
        c = getattr(iv, where)
    return iv, c, draw(st.sampled_from((1, 2, 4)))


class TestWorstCaseBounds:
    """Each run's error stays within its method's worst-case bound, up to
    2 ulps of the bracket's largest magnitude for the rounding of its probes:
    halving and trichotomy within ``accuracy_bound`` of their budget N, and
    within the worst cases their code attains: a budget N buys at least
    ceil((N-1)/2) halving and ceil((N-1)/3) trichotomy iterations after the
    opening probe (at most 2 and 3 evaluations each, where the paper's
    exponent (N-1)/4 charges trichotomy 4), so halving stays within
    L/(2*2^ceil((N-1)/2)) and trichotomy within L/(2*3^ceil((N-1)/3));
    Fibonacci within L/F(N+1) under a budget N and within epsilon under an
    epsilon stop, golden section within L*phi^-N under a budget N (its N-1
    iterations leave a bracket of length L*phi^-(N-1), and the point it
    answers, the survivor, sits at the 1/phi split of that bracket) and
    within epsilon/2 under an epsilon stop (it stops once b - a <= epsilon
    and answers the midpoint), dichotomous search within epsilon under an
    epsilon stop (it stops once (b - a)/2 <= epsilon) and within
    ``dichotomous_attained`` under a budget N: half its final bracket's
    length when N is odd and the answer probe is affordable, the whole
    length when N is even and it answers the better pair probe.  A
    right-endpoint minimizer with an odd N attains halving's bound exactly."""

    @given(bracket_and_minimizer(), st.integers(2, 40), st.floats(1e-9, 0.5))
    @settings(max_examples=300, deadline=None)
    def test_error_within_bound(self, case, n, relative_epsilon):
        iv, c, p = case
        length = iv.length()
        slack = 2 * math.ulp(max(abs(iv.lo), abs(iv.hi)))

        def error(method, stop):
            return abs(minimize(method, Objective(lambda x: abs(x - c) ** p), iv, stop).x_min - c)

        for method in (Method.HALVING, Method.TRICHOTOMY):
            assert error(method, StopRule(budget=n)) <= accuracy_bound(method, length, n) + slack
        assert error(Method.HALVING, StopRule(budget=n)) <= halving_attained(length, n) + slack
        assert (error(Method.TRICHOTOMY, StopRule(budget=n))
                <= trichotomy_attained(length, n) + slack)
        assert error(Method.FIBONACCI, StopRule(budget=n)) <= length / _FIB[n + 1] + slack
        golden = length * ((math.sqrt(5.0) - 1.0) / 2.0) ** n
        assert error(Method.GOLDEN, StopRule(budget=n)) <= golden + slack
        assert (error(Method.DICHOTOMOUS, StopRule(budget=n))
                <= dichotomous_attained(length, n) + slack)
        epsilon = length * relative_epsilon
        assert error(Method.FIBONACCI, StopRule(epsilon=epsilon)) <= epsilon + slack
        assert error(Method.GOLDEN, StopRule(epsilon=epsilon)) <= epsilon / 2 + slack
        assert error(Method.DICHOTOMOUS, StopRule(epsilon=epsilon)) <= epsilon + slack

    def test_trichotomy_attains_better_accuracy(self):
        # the paper's claim that trichotomy "has better accuracy after N
        # calculations", in the bounds the code attains: it holds against
        # halving's attained bound for every N but 4, 10 and 16, where
        # 3^ceil((N-1)/3) < 2^ceil((N-1)/2), and against halving's
        # accuracy_bound for every N
        behind = [n for n in range(2, 200)
                  if not trichotomy_attained(1.0, n) < halving_attained(1.0, n)]
        assert behind == [4, 10, 16]
        for n in range(2, 61):
            assert trichotomy_attained(1.0, n) < accuracy_bound(Method.HALVING, 1.0, n)
