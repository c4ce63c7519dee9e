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

Each drawn run is also replayed with exact rationals: every float64 is one
(Goldberg 1991), so ``fractions`` computes the objective exactly at the
probes the run paid.  At the first event whose bracket no longer holds the
minimizer c, the loss must be explained by the float64 floor: either two
probes strictly inside the bracket that event started from have values whose
float order differs from their exact order, a float tie of unequal values or
the reverse included (the value floor), or two probes coincide or a new probe
lies on an endpoint (the x floor).  Any other loss is a logic defect.

Two exact relations hold for all five methods, dichotomous search included:
multiplying by a power of two is exact in float64 away from overflow and
subnormals, so a run of u -> f(2^k*u) on [a/2^k, b/2^k] with epsilon/2^k
pays f's run on [a, b] probe for probe, divided by 2^k, and a run of 2^j*f
pays the same probes with every value times 2^j.
"""
import math
from fractions import Fraction
from itertools import combinations, pairwise

from hypothesis import given, settings, strategies as st

from unisearch.core import Interval, Objective, StopRule
from unisearch.solvers import Method, _trace_record, minimize

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


def _sign(d) -> int:
    return (d > 0) - (d < 0)


def lost_minimizer(log, marks, c, length, p, k):
    """Why the run recorded in ``log`` and ``marks`` first lost c, replayed
    with the exact values |(x - c)/length|^p + k: None when every bracket
    holds c; "order" when two probes strictly inside the bracket the losing
    event started from are ordered by their float values unlike their exact
    ones, ties included; "x floor" when two probes in that bracket coincide
    or one the event paid lies on its endpoint; "unexplained" otherwise."""
    c_exact, length_exact, k_exact = Fraction(c), Fraction(length), Fraction(k)
    for (lo0, hi0, start), (lo, hi, end) in pairwise(marks):
        if lo <= c <= hi:
            continue
        inside = [(y, abs((Fraction(x) - c_exact) / length_exact) ** p + k_exact)
                  for x, y in log[:end] if lo0 < x < hi0]
        if any(_sign(y1 - y2) != _sign(e1 - e2)
               for (y1, e1), (y2, e2) in combinations(inside, 2)):
            return "order"
        xs = [x for x, _ in log[:end] if lo0 <= x <= hi0]
        if len(set(xs)) < len(xs) or any(x in (lo0, hi0) for x, _ in log[start:end]):
            return "x floor"
        return "unexplained"
    return None


@given(runs())
@settings(derandomize=True, deadline=None, max_examples=1000)
def test_run_contract(run):
    method, iv, c, p, k, stop = run
    length = iv.length()

    def f(x):
        return abs((x - c) / length) ** p + k

    obj = Objective(f)
    res = minimize(method, obj, iv, stop)
    log, marks = _trace_record(res)     # the record, before the trace replaces it
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
    assert lost_minimizer(log, marks, c, length, p, k) in (None, "order", "x floor")


@st.composite
def scaled_runs(draw):
    """A method, a bracket inside [-100, 200] of width 1e-6 to 1e2, a
    minimizer c in it, the objective |(x - c)/L|^p + K, a budget and an
    epsilon down to 2^-53 of the width, and the powers of two 2^k for x,
    k in -900..900, and 2^j for f, j in -300..300."""
    method = draw(st.sampled_from(list(Method)))
    width = 10.0 ** draw(st.floats(-6, 2))
    # lo on a grid of spacing about ulp(100): no endpoint near the subnormals
    lo = -100.0 + draw(st.floats(0, 1)) * (300.0 - width)
    iv = Interval(lo, lo + width)
    length = iv.length()
    c = min(iv.lo + draw(st.floats(0, 1)) * length, iv.hi)
    p = draw(st.sampled_from((1, 2, 4)))
    k = draw(st.just(0.0) | st.floats(1, 1e6) | st.floats(-1e6, -1))
    stops = (StopRule(budget=draw(st.integers(2, 120))),
             StopRule(epsilon=length * 2.0 ** -draw(st.floats(1, 53))))
    return method, iv, c, p, k, stops, draw(st.integers(-900, 900)), draw(st.integers(-300, 300))


def _scaled(res, kx=0, jf=0):
    """The answer and record ``(log, marks)`` of ``res`` as ``float.hex``,
    with every x times 2^kx and every value times 2^jf."""
    log, marks = _trace_record(res)
    return ((math.ldexp(res.x_min, kx).hex(), math.ldexp(res.f_min, jf).hex()),
            [(math.ldexp(x, kx).hex(), math.ldexp(y, jf).hex()) for x, y in log],
            [(math.ldexp(lo, kx).hex(), math.ldexp(hi, kx).hex(), end) for lo, hi, end in marks])


@given(scaled_runs())
@settings(derandomize=True, deadline=None, max_examples=500)
def test_power_of_two_scaling(run):
    method, iv, c, p, k, stops, kx, jf = run
    length = iv.length()

    def f(x):
        return abs((x - c) / length) ** p + k

    def f_of_scaled_x(u):
        return f(math.ldexp(u, kx))

    def scaled_f(x):
        return math.ldexp(f(x), jf)

    scaled_iv = Interval(math.ldexp(iv.lo, -kx), math.ldexp(iv.hi, -kx))
    for stop in stops:
        want = _scaled(minimize(method, Objective(f), iv, stop))
        x_stop = stop if stop.budget else StopRule(epsilon=math.ldexp(stop.epsilon, -kx))
        got = minimize(method, Objective(f_of_scaled_x), scaled_iv, x_stop)
        assert _scaled(got, kx=kx) == want
        got = minimize(method, Objective(scaled_f), iv, stop)
        assert _scaled(got, jf=-jf) == want
