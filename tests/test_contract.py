"""One run contract over brackets of every magnitude.

Each drawn run must keep its probes strictly inside the bracket before
them, nest its brackets in events numbered 1..n, account for every
evaluation once, keep its stop rule, answer with one of its own probes
inside its final bracket, and miss the minimizer by no more than its
method's attained worst case plus the noise of the objective's rounding.

The drawn domain is the part of the contract that holds for every method
drawn: halving, trichotomy, golden section and Fibonacci search, on
brackets [t*2^e, t*2^e + 2^(e-j)] with |t| <= 1, e in -1000..1000 and j in
0..12, each at least 2^-13 of its largest magnitude wide.  Three parts stay out until the program holds them: dichotomous
search, whose answer follows rounding noise once f(x*) is not 0 (ROADMAP
item 9); brackets a few ulps wide at the float64 floor, where a run may
probe an endpoint (item 3); and brackets near overflow, whose probe sums
overflow float64 (item 4).
"""
import math

from hypothesis import given, settings, strategies as st

from unisearch.core import Interval, Objective, StopRule
from unisearch.solvers import Method, minimize

from test_bounds import _FIB, halving_attained, trichotomy_attained
from test_solvers import check_trace

_U = 2.0 ** -53                          # unit roundoff of float64
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_METHODS = (Method.HALVING, Method.TRICHOTOMY, Method.GOLDEN, Method.FIBONACCI)


@st.composite
def runs(draw):
    """A method, a bracket [lo, lo + L] with lo = t*2^e and L = 2^e*2^-j, a
    minimizer c at either end or inside, the objective |(x - c)/L|^p + K,
    and a budget or an epsilon L*2^-s."""
    method = draw(st.sampled_from(_METHODS))
    e = draw(st.integers(-1000, 1000))
    lo = draw(st.floats(-1, 1)) * 2.0 ** e
    iv = Interval(lo, lo + 2.0 ** (e - draw(st.integers(0, 12))))
    length = iv.length()
    where = draw(st.sampled_from(("lo", "hi", "inside")))
    if where == "inside":
        c = min(iv.lo + draw(st.floats(0, 1)) * length, iv.hi)
    else:
        c = getattr(iv, where)
    p = draw(st.sampled_from((1, 2, 4)))
    k = draw(st.just(0.0) | st.floats(1, 1e6) | st.floats(-1e6, -1))
    stop = draw(st.integers(2, 40).map(lambda n: StopRule(budget=n))
                | st.floats(1, 30).map(lambda s: StopRule(epsilon=length * 2.0 ** -s)))
    return method, iv, c, p, k, stop


def attained(method: Method, length: float, stop: StopRule) -> float:
    """The worst-case error the method's code attains under ``stop``."""
    if stop.epsilon is not None:
        # golden stops once b - a <= epsilon and answers the midpoint
        return stop.epsilon / 2 if method is Method.GOLDEN else stop.epsilon
    n = stop.budget
    return {
        Method.HALVING: halving_attained(length, n),
        Method.TRICHOTOMY: trichotomy_attained(length, n),
        Method.GOLDEN: length * _INVPHI ** n,
        Method.FIBONACCI: length / _FIB[n + 1],
    }[method]


@given(runs())
@settings(derandomize=True, deadline=None, max_examples=1000)
def test_run_contract(run):
    method, iv, c, p, k, stop = run
    length = iv.length()

    def f(x):
        return abs((x - c) / length) ** p + k

    obj = Objective(f)
    res = minimize(method, obj, iv, stop)
    trace = res.trace
    check_trace(iv, trace)
    assert all(ev.evals_this_iter == len(ev.probes) for ev in trace)
    assert sum(ev.evals_this_iter for ev in trace) == res.n_evals == obj.count
    assert res.n_iters == len(trace)
    if stop.budget is not None:
        # halving and trichotomy finish the iteration that crosses the budget
        over = {Method.HALVING: 1, Method.TRICHOTOMY: 2}.get(method, 0)
        assert stop.budget <= res.n_evals <= stop.budget + over
    assert res.final_interval == trace[-1].interval_after
    assert res.final_interval.lo <= res.x_min <= res.final_interval.hi

    # the estimate is one of the run's probes and, but for golden's answer
    # probe under an epsilon stop, the survivor or the pinned midpoint, which
    # holds the run's least value
    probes = [xy for ev in trace for xy in ev.probes]
    assert (res.x_min, res.f_min) in probes
    if not (method is Method.GOLDEN and stop.epsilon is not None):
        assert res.f_min == min(y for _, y in probes)

    noise = 4 * length * (_U * abs(k)) ** (1 / p)
    slack = 4 * math.ulp(max(abs(iv.lo), abs(iv.hi)))
    assert abs(res.x_min - c) <= attained(method, length, stop) + noise + slack
