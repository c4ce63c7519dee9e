"""Derivative-free bracketing minimizers for unimodal functions on [a, b].

Five methods share a common contract: probes are strictly interior to the
current bracket (endpoints are never evaluated), comparisons use ``<=``,
and every run returns a :class:`~unisearch.core.RunResult` whose trace
accounts for each paid evaluation.  A tie between two probes goes to the
one compared first, so the kept bracket is not always the leftmost:
dichotomous, golden and Fibonacci keep [a, x_high] when f(x_low) ==
f(x_high); halving keeps the left half when f(x1) == f(x2) but the middle
half when f(x3) == f(x2); trichotomy keeps the left side when f(x2) ==
f(x3), but moves right when f(x4) == f(x3), and to [x4, b] when f(x5) ==
f(x4).  Interval-halving and trichotomy keep their estimate pinned to
the exact midpoint of the bracket; golden-section and Fibonacci carry the
best evaluated interior point instead.

One public function, :func:`minimize`, runs every method.  It checks its
arguments once, opens the run record, calls the method's private body, which
returns only the estimate ``(x, f(x))``, and builds the one
:class:`~unisearch.core.RunResult` from the record.

One private engine, :func:`_drive`, runs the iterations of every method and
owns all they share: the run record (one event per iteration, with probes
that end a run folded into the last event), the collapse guard that keeps the
bracket non-empty at the float64 floor, the stop rules checked between
iterations (half-width or length against epsilon, the evaluation budget,
and a bracket that no longer shrinks), and the handling of a non-finite
value (:class:`NonFiniteValue` leaves with the partial trace).
That is the whole contract for a failing objective: any other exception
raised by the function (``ZeroDivisionError``, ``OverflowError``, ...)
propagates unchanged and carries no trace; the Objective's ``count`` still
reports the evaluations paid before it.

Each method supplies only its step rule, ``step(a, b, state) -> (a, b,
state)``: it pays for its probes and returns the bracket it keeps with the
state it carries into the next iteration.

* halving and trichotomy open with a probe at the midpoint; the state is
  that evaluated midpoint, the incumbent and the estimate;
* golden section and Fibonacci open with the lower probe and share one
  two-probe step that differs only in its ``(t_low, t_high)`` schedule,
  ``(1 - 1/phi, 1/phi)`` repeated or ``(F(m-2)/F(m), F(m-1)/F(m))`` for
  m = N+1, ..., 3; the state is the surviving probe and the side on which
  the next one goes;
* dichotomous search probes a pair around the midpoint; the state is the
  better probe of the last pair.

Dichotomous search, and golden section under an epsilon stop, end with one
answer probe at the midpoint of the final bracket, also made by the engine.

A run records its evaluations once, in one probe log of ``(x, f(x))`` pairs,
with one mark per event: the bracket the event left and the length of the
log when it closed.  The trace (and a :class:`NonFiniteValue`'s partial
trace), ``n_evals``, ``n_iters``, the final bracket and the best point are
derived from that record when the run ends.

Every probe must be finite.  Halving, trichotomy, dichotomous search and
the answer probe compute probes as sums of bracket points, such as
(a + b)/2, which overflow float64 on brackets whose endpoints lie near
+/-1.8e308 although the bracket's length is finite; such a probe raises
``ValueError`` before the objective is called, rather than evaluating
``x = inf`` and returning a wrong answer.
"""
from __future__ import annotations

import math
from enum import StrEnum
from itertools import chain, repeat
from operator import itemgetter

from .core import (
    IncompatibleStopRule,
    Interval,
    NonFiniteValue,
    Objective,
    RunResult,
    StopRule,
    TraceEvent,
)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0   # 1/phi = 0.6180339887498949


class Method(StrEnum):
    HALVING = "halving"
    TRICHOTOMY = "trichotomy"
    DICHOTOMOUS = "dichotomous"
    GOLDEN = "golden"
    FIBONACCI = "fibonacci"


class _Run:
    """Per-run record: one probe log, one mark per trace event.

    ``log`` holds ``(x, f(x))`` for each paid evaluation, in order, and
    ``marks`` holds ``(lo, hi, end)`` for each event: the bracket it left and
    ``len(log)`` when it closed.  The trace, the counts, the final bracket and
    the best point are all derived from these two lists.
    """

    def __init__(self, obj: Objective):
        self.obj = obj
        self.log: list[tuple[float, float]] = []
        self.marks: list[tuple[float, float, int]] = []

    def probe(self, x: float) -> float:
        if x - x != 0.0:    # inf - inf and nan - nan are nan: the probe overflowed
            raise ValueError(f"probe x={x!r} overflowed float64: the bracket's endpoints "
                             "are too large in magnitude for its probe arithmetic")
        y = self.obj.evaluate(x)
        self.log.append((x, y))
        return y

    def fold(self, lo: float, hi: float) -> None:
        """Extend the last event to the end of the log (an answer probe, or the
        probes of an iteration undone at the FP floor); with no event yet,
        open one on [lo, hi]."""
        if self.marks:
            lo, hi, _ = self.marks.pop()
        self.marks.append((lo, hi, len(self.log)))

    def trace(self) -> tuple[TraceEvent, ...]:
        events, start, log = [], 0, self.log
        for i, (lo, hi, end) in enumerate(self.marks, 1):
            events.append(TraceEvent(i, Interval(lo, hi), end - start, tuple(log[start:end])))
            start = end
        return tuple(events)

    def best(self) -> tuple[float, float]:
        """The first evaluated point of least value."""
        return min(self.log, key=itemgetter(1))

    def result(self, x: float, f: float) -> RunResult:
        trace = self.trace()
        return RunResult(x_min=x, f_min=f, n_evals=len(self.log), n_iters=len(trace),
                         final_interval=trace[-1].interval_after, trace=trace)


def _drive(r: _Run, iv: Interval, step, state, epsilon: float | None,
           budget: int | None, *, halve: bool = True, floor: bool = True,
           answer: bool = False):
    """Run ``step`` from ``iv`` until a stop rule holds; see the module docstring.

    After each iteration the loop stops when (b - a)/2 (or b - a, with
    ``halve`` false) is at most ``epsilon``, when at least ``budget``
    evaluations are spent, or, with ``floor``, when the bracket did not
    shrink.  An iteration that would leave an empty bracket is undone, its
    probes joining the previous event.  With ``answer``, and at most
    ``budget`` evaluations spent, the midpoint of the final bracket is then
    evaluated as the estimate: that probe joins the last event and the
    state becomes ``(midpoint, f(midpoint))``.  An iteration cut short by
    a non-finite value closes an event of its own only if it paid for probes.

    Returns ``(state, end)`` with ``end`` one of "epsilon", "budget",
    "floor" or "collapse".
    """
    a, b = iv.lo, iv.hi
    log, marks = r.log, r.marks
    divisor = 2 if halve else 1
    try:
        while True:
            na, nb, state = step(a, b, state)
            length = nb - na
            if not length > 0.0:    # bracket collapsed at the FP floor
                r.fold(a, b)
                end = "collapse"
                break
            marks.append((na, nb, len(log)))
            span, a, b = b - a, na, nb
            if epsilon is not None and length / divisor <= epsilon:
                end = "epsilon"
                break
            if budget is not None and len(log) >= budget:
                end = "budget"
                break
            if floor and not length < span:   # numerical resolution floor
                end = "floor"
                break
        if answer and (budget is None or len(log) <= budget):
            xm = (a + b) / 2
            state = (xm, r.probe(xm))
            r.fold(a, b)
    except NonFiniteValue as e:
        if len(log) > (marks[-1][2] if marks else 0):    # the iteration paid probes
            marks.append((a, b, len(log)))
        e.partial_trace = r.trace()
        raise
    return state, end


def _halving(r: _Run, iv: Interval, stop: StopRule) -> tuple[float, float]:
    """Interval halving: keep the bracket midpoint evaluated, probe quarter points.

    The midpoint x2 = (a+b)/2 is evaluated once up front (part of iteration 1).
    Each iteration probes x1 = (a+x2)/2 and, only if needed, x3 = (x2+b)/2,
    then keeps the half that still brackets the minimum; the bracket halves
    every iteration and x2 is always its midpoint.  Cost: at most 3
    evaluations in iteration 1 and at most 2 thereafter.  The estimate is x2.

    Stop rules are checked between iterations, never inside one: a budget of
    N lets the iteration in progress finish, so the run spends N or N+1
    evaluations.
    """
    probe = r.probe

    def step(a, b, state):
        x2, f2 = state
        x1 = (a + x2) / 2
        f1 = probe(x1)
        if f1 <= f2:
            return a, x2, (x1, f1)
        x3 = (x2 + b) / 2
        f3 = probe(x3)
        if f2 <= f3:
            return x1, x3, state
        return x2, b, (x3, f3)

    x2 = (iv.lo + iv.hi) / 2
    return _drive(r, iv, step, (x2, probe(x2)), stop.epsilon, stop.budget)[0]


def _trichotomy(r: _Run, iv: Interval, stop: StopRule) -> tuple[float, float]:
    """Trichotomy: keep the bracket midpoint evaluated, probe third points.

    The midpoint x3 = (a+b)/2 is evaluated once up front (part of iteration
    1).  Each iteration probes x2 = (a+2*x3)/3; if f(x2) <= f(x3) it refines
    to the left with x1 = (a+x2)/2, otherwise it probes x4 = (b+2*x3)/3 and,
    if that side keeps improving, x5 = (2*b+x3)/3.  Whatever the branch, the
    bracket shrinks to exactly one third of its length and x3 remains its
    midpoint.  Cost: at most 4 evaluations in iteration 1 and at most 3
    thereafter.  The estimate is x3.

    Stop rules are checked between iterations, as in interval halving: a
    budget of N lets the iteration in progress finish (N to N+2 evaluations
    spent).
    """
    probe = r.probe

    def step(a, b, state):
        x3, f3 = state
        x2 = (a + 2 * x3) / 3
        f2 = probe(x2)
        if f2 <= f3:
            x1 = (a + x2) / 2
            f1 = probe(x1)
            if f1 <= f2:
                return a, x2, (x1, f1)        # keep [a, x2]
            return x1, x3, (x2, f2)           # keep [x1, x3]
        x4 = (b + 2 * x3) / 3
        f4 = probe(x4)
        if f4 <= f3:
            x5 = (2 * b + x3) / 3
            f5 = probe(x5)
            if f5 <= f4:
                return x4, b, (x5, f5)        # keep [x4, b]
            return x3, x5, (x4, f4)           # keep [x3, x5]
        return x2, x4, state                  # keep [x2, x4], x3 stays

    x3 = (iv.lo + iv.hi) / 2
    return _drive(r, iv, step, (x3, probe(x3)), stop.epsilon, stop.budget)[0]


def _dichotomous(r: _Run, iv: Interval, stop: StopRule, delta: float) -> tuple[float, float]:
    """Dichotomous search: probe a symmetric pair around the bracket midpoint.

    Each iteration evaluates f(m - delta/2) and f(m + delta/2) at the current
    midpoint m and keeps [a, m + delta/2] or [m - delta/2, b].  The estimate
    is the midpoint of the final bracket, evaluated as a final answer probe;
    under a budget that cannot afford the answer probe, the better probe of
    the last completed pair is returned instead (it lies in the final
    bracket).  Budget affordability is checked per pair, so a trailing odd
    evaluation funds the answer probe rather than half a pair: a budget of N
    spends exactly N evaluations.
    """
    probe = r.probe

    def step(a, b, state):
        m = (a + b) / 2
        xl, xr = m - delta / 2, m + delta / 2
        f_l = probe(xl)
        f_r = probe(xr)
        if f_l <= f_r:
            return a, xr, (xl, f_l)
        return xl, b, (xr, f_r)

    # another pair is affordable while at most budget - 2 evaluations are
    # spent, and the answer probe while at most budget - 1 are
    budget = None if stop.budget is None else stop.budget - 1
    # the answer probe, or else the better probe of the last pair
    return _drive(r, iv, step, None, stop.epsilon, budget, answer=True)[0]


def _two_probe(r: _Run, iv: Interval, ratios):
    """The step rule of golden section and Fibonacci, and its opening state.

    ``ratios`` yields one ``(t_low, t_high)`` per iteration.  The run opens
    with a probe at a + t_low*(b - a) of the first pair; each iteration
    probes the missing one of a + t_low*(b - a) and a + t_high*(b - a),
    compares the two, and keeps [a, x_high] or [x_low, b].  The probe kept
    inside is the survivor, and the next probe goes on the other side of it:
    the state is ``(survivor, f(survivor), low)``.  The opening probe is
    paid here.
    """
    probe = r.probe
    ratios = iter(ratios)
    first = next(ratios)
    ratios = chain((first,), ratios)    # the opening and the first step share it

    def step(a, b, state):
        x, fx, low = state
        t_low, t_high = next(ratios)
        if low:
            xl = a + t_low * (b - a)
            f_l = probe(xl)
            xh, f_h = x, fx
        else:
            xh = a + t_high * (b - a)
            f_h = probe(xh)
            xl, f_l = x, fx
        if f_l <= f_h:
            return a, xh, (xl, f_l, True)
        return xl, b, (xh, f_h, False)

    xl = iv.lo + first[0] * (iv.hi - iv.lo)
    return step, (xl, probe(xl), False)


def _golden(r: _Run, iv: Interval, stop: StopRule) -> tuple[float, float]:
    """Golden-section search with two interior points at the 1/phi split.

    Probes sit at a + (1 - 1/phi)*L and a + (1/phi)*L; after the first
    iteration (two evaluations) each iteration reuses the surviving point and
    pays one new evaluation, shrinking the bracket by the factor 1/phi.  With
    an epsilon stop the loop runs while (b - a) > epsilon -- the full length,
    not the half-width -- and then evaluates the returned estimate, the
    midpoint of the final bracket, as one extra answer probe.  Under a budget
    the method spends everything on shrink steps (exactly N evaluations) and
    returns the best evaluated interior point.
    """
    step, state = _two_probe(r, iv, repeat((1 - _INVPHI, _INVPHI)))
    answer = stop.epsilon is not None
    state = _drive(r, iv, step, state, stop.epsilon, stop.budget,
                   halve=False, answer=answer)[0]
    return state if answer else r.best()


def _fibonacci_numbers(n: int) -> list[int]:
    fib = [1, 1]
    while len(fib) <= n:
        fib.append(fib[-1] + fib[-2])
    return fib


_FIB_MAX_BUDGET = 1400     # beyond it the ratios F(m-2)/F(m) overflow float64
_FIB = _fibonacci_numbers(_FIB_MAX_BUDGET + 1)    # stages up to m = budget + 1
# (t_low, t_high) = (F(m-2)/F(m), F(m-1)/F(m)) of the stage with index m >= 2
_FIB_STAGES = [None, None] + [(_FIB[m - 2] / _FIB[m], _FIB[m - 1] / _FIB[m])
                              for m in range(2, len(_FIB))]


def fibonacci_budget_for(length: float, tol: float) -> int:
    """Smallest evaluation count whose Fibonacci estimate error is <= tol.

    An n-evaluation run's estimate is off by at most length/F(n+1).  Raises
    ValueError when no budget that Fibonacci search accepts is enough.
    """
    for n in range(2, _FIB_MAX_BUDGET + 1):
        if length / _FIB[n + 1] <= tol:
            return n
    raise ValueError(f"no Fibonacci budget up to {_FIB_MAX_BUDGET} reaches tol={tol!r} "
                     f"on length {length!r}")


def _fibonacci(r: _Run, iv: Interval, stop: StopRule) -> tuple[float, float]:
    """Fibonacci search consuming exactly the budget N of ``stop``.

    With F(0) = F(1) = 1, the stage with index m places interior points at
    a + F(m-2)/F(m)*L and a + F(m-1)/F(m)*L; the ladder starts at
    m = N + 1 and pays one new evaluation per stage.  The run ends with the
    surviving probe at the midpoint of a bracket two lattice units wide, and
    that evaluated midpoint is the estimate, so the error is at most
    length/F(N + 1) -- no tie-breaking offset probe is needed.  Requires a
    budget stop rule: there is no epsilon-driven variant.
    """
    n = stop.budget
    ladder = _FIB_STAGES[n + 1:2:-1]    # stages m = N + 1, ..., 3
    step, state = _two_probe(r, iv, ladder)
    # no floor stop: the ladder spends its whole budget even at the FP floor
    (x, fx, _), end = _drive(r, iv, step, state, None, n, floor=False)
    # collapsed before the ladder finished: the best point so far
    return (x, fx) if end == "budget" else r.best()


_METHODS = {
    Method.HALVING: _halving,
    Method.TRICHOTOMY: _trichotomy,
    Method.DICHOTOMOUS: _dichotomous,
    Method.GOLDEN: _golden,
    Method.FIBONACCI: _fibonacci,
}


def minimize(
    method: Method | str,
    obj: Objective,
    iv: Interval,
    stop: StopRule,
    *,
    delta: float | None = None,
) -> RunResult:
    """Run ``method`` on ``obj`` over ``iv`` under ``stop``; the one entry point.

    Every argument is checked here, before the first evaluation:

    * ``method`` is a :class:`Method` or its value;
    * ``delta``, the probe offset of dichotomous search, is accepted for
      that method only.  It defaults to min(epsilon/2, L*1e-6) under an
      epsilon stop and to L*1e-6 under a budget, for the bracket length L,
      and must satisfy 0 < delta < L/4;
    * Fibonacci search requires a budget stop rule, and raises
      :class:`~unisearch.core.IncompatibleStopRule` otherwise; its budget
      is at most 1400.

    Each method keeps ``stop`` as follows, checked between iterations:

    ===========  ============================  ==================
    method       an epsilon stop ends once     a budget N spends
    ===========  ============================  ==================
    halving      (b - a)/2 <= epsilon          N or N+1
    trichotomy   (b - a)/2 <= epsilon          N, N+1 or N+2
    dichotomous  (b - a)/2 <= epsilon, then    exactly N
                 one answer probe
    golden       b - a <= epsilon, then one    exactly N
                 answer probe
    fibonacci    (budget only)                 exactly N
    ===========  ============================  ==================

    A budget run may spend fewer: every method but Fibonacci stops once the
    bracket no longer shrinks (at the float64 floor or, for dichotomous
    search, as its length nears delta), and every method stops before an
    iteration that would leave an empty bracket.
    """
    method = Method(method)
    if delta is not None and method is not Method.DICHOTOMOUS:
        raise ValueError("delta applies to the dichotomous method only")
    args = ()
    if method is Method.DICHOTOMOUS:
        if delta is None:
            delta = iv.length() * 1e-6
            if stop.epsilon is not None:
                delta = min(stop.epsilon / 2, delta)
        if not (0 < delta < iv.length() / 4):
            raise ValueError(
                f"dichotomous delta must satisfy 0 < delta < length/4, got {delta!r}"
            )
        args = (delta,)
    elif method is Method.FIBONACCI:
        if stop.budget is None:
            raise IncompatibleStopRule("fibonacci search requires a budget stop rule")
        if stop.budget > _FIB_MAX_BUDGET:
            raise ValueError("budget too large: Fibonacci ratios overflow float64 "
                             f"beyond {_FIB_MAX_BUDGET}")
    r = _Run(obj)
    return r.result(*_METHODS[method](r, iv, stop, *args))
