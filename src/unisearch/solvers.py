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
the exact midpoint of the bracket; golden-section and Fibonacci carry their
survivor instead, the probe kept inside the bracket, which lies in the
final bracket and holds the least value of the run.

One public function, :func:`minimize`, runs every method with one signature
and one contract.  It opens the run record, calls the method's private body
with the record and the objective's bound ``evaluate`` as its probe, which
derives its own parameters (dichotomous search its offset delta,
Fibonacci search its number of evaluations) and checks them before its first
evaluation, and returns only the estimate ``(x, f(x))``; :func:`minimize`
builds the one :class:`~unisearch.core.RunResult` from the record.

Each family of methods has one private loop.  The two loops mark one event
per iteration in the run record and check the stop rules between
iterations: epsilon against the half-width or the length, and the
evaluation budget.  Both share one floor rule: an iteration that leaves no
smaller non-empty bracket ends the run, as an event on the bracket it
started from.  That is how a run ends at the float64 floor, whatever the
method and the stop rule.
A non-finite value is handled once, in :func:`minimize`:
:class:`NonFiniteValue` leaves with the partial trace.  That is the whole
contract for a failing objective: any other exception raised by the
function (``ZeroDivisionError``, ``OverflowError``, ...) propagates
unchanged and carries no trace; the Objective's ``count`` still reports the
evaluations paid before it.

* :func:`_drive` runs the midpoint methods, which supply only their step
  rule, ``step(a, b, state) -> (a, b, state)``: it pays for its probes and
  returns the bracket it keeps with the state it carries into the next
  iteration.  Halving and trichotomy open with a probe at the midpoint;
  the state is that evaluated midpoint, the incumbent and the estimate.
  Dichotomous search probes a pair around the midpoint; the state is the
  better probe of the last pair.  Epsilon bounds the half-width.
* :func:`_two_probe` is the loop of golden section and Fibonacci, which
  differ only in its ``(t_low, t_high)`` schedule: ``(1 - 1/phi, 1/phi)``
  repeated, or ``(F(m-2)/F(m), F(m-1)/F(m))`` for m = N+1, ..., 3.  It
  opens with the lower probe, then pays one probe per iteration and
  carries the survivor, the probe kept inside, and the side on which the
  next one goes.  Epsilon bounds the full length, and the schedule's
  length is the budget: N - 1 pairs for N evaluations.  It closes its
  iterations itself, so an evaluation costs no step call.

Dichotomous search, and golden section under an epsilon stop, end with one
answer probe at the midpoint of the final bracket, paid through the run
record (:meth:`_Run.answer`), which extends the last event to take it in.

A run records its evaluations once, in one probe log of ``(x, f(x))`` pairs,
and in marks of ``(lo, hi, end)``: mark 0 is the input bracket with end 0,
then one mark per event, the bracket the event left and the length of the
log when it closed.  So event i runs from mark i-1 to mark i.  Every probe
is one call of :meth:`~unisearch.core.Objective.evaluate`, one frame per
evaluation, which appends the pair to the log the run attached to its
Objective; :func:`minimize` detaches the log on every exit, so a finished
run's record never changes afterwards.  ``n_evals``, ``n_iters``, the final bracket and
the last trace event are derived from that record when the run ends, and so
is a :class:`NonFiniteValue`'s partial trace.  The record itself, which
holds no objective, is the result's pending trace: it builds the other
events on the first read of ``RunResult.trace``.  ``run --trace`` renders
the record itself while the trace is pending, so it builds no event beyond
the last.

Every probe must be finite.  Halving, trichotomy, dichotomous search and
the answer probe compute probes as sums of bracket points, such as
(a + b)/2, which overflow float64 on brackets whose endpoints lie near
+/-1.8e308 although the bracket's length is finite; ``Objective.evaluate``
refuses such a probe with ``ValueError`` before the function is called,
rather than evaluating ``x = inf`` and returning a wrong answer.
"""
from __future__ import annotations

import math
from enum import StrEnum
from itertools import chain, pairwise, repeat

from .core import (
    Interval,
    NonFiniteValue,
    Objective,
    RunResult,
    StopRule,
    TraceEvent,
    _get_trace,
)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0   # 1/phi = 0.6180339887498949


class Method(StrEnum):
    HALVING = "halving"
    TRICHOTOMY = "trichotomy"
    DICHOTOMOUS = "dichotomous"
    GOLDEN = "golden"
    FIBONACCI = "fibonacci"


class _Run:
    """Per-run record: one probe log, the input bracket, one mark per event.

    ``log`` holds ``(x, f(x))`` for each paid evaluation, in order: the run
    attaches it to its Objective, whose ``evaluate`` appends each pair, and
    :func:`minimize` detaches it when the run ends.  ``marks`` holds ``(lo,
    hi, end)``: mark 0 is the input bracket ``iv`` with end 0, then one mark
    per event, the bracket it left and ``len(log)`` when it closed, so event
    i holds ``log[marks[i-1][2]:marks[i][2]]``.  The trace, the counts and
    the final bracket are all derived from these two lists.  Once the run
    ends it is its result's pending trace: called on the first read of
    ``RunResult.trace``, it builds the events.
    """

    __slots__ = ("log", "marks", "final")

    def __init__(self, obj: Objective, iv: Interval):
        if type(obj._log) is list:  # logs of two runs must not interleave
            raise RuntimeError("the objective is already in a run")
        self.log = obj._log = []   # (x, f(x)) pairs, appended by obj.evaluate
        self.marks: list[tuple[float, float, int]] = [(iv.lo, iv.hi, 0)]

    def answer(self, probe) -> tuple[float, float]:
        """Probe the midpoint of the last event's bracket as the estimate; the
        probe joins that event."""
        lo, hi, _ = self.marks[-1]
        xm = (lo + hi) / 2
        fm = probe(xm)
        self.marks[-1] = (lo, hi, len(self.log))
        return xm, fm

    def result(self, x: float, f: float) -> RunResult:
        """The run's result: its last event now, the others on the first read.

        The run becomes the result's pending trace; it holds no objective."""
        log, marks = self.log, self.marks
        n = len(marks) - 1
        (_, _, start), (lo, hi, end) = marks[-2:]
        self.final = TraceEvent(n, Interval(lo, hi), end - start, tuple(log[start:end]))
        return RunResult(x, f, len(log), n, self.final.interval_after, self)

    def __call__(self) -> tuple[TraceEvent, ...]:
        return (*_events(self.log, self.marks[:-1]), self.final)


def _events(log, marks) -> list[TraceEvent]:
    """The trace events of the record ``log`` and ``marks``, mark 0 first."""
    return [TraceEvent(i, Interval(lo, hi), end - start, tuple(log[start:end]))
            for i, ((_, _, start), (lo, hi, end)) in enumerate(pairwise(marks), 1)]


def _trace_record(res: RunResult):
    """The record ``(log, marks)`` of the trace of ``res``, so that no event
    is built: mark 0 is the input bracket, then one mark per event.  The
    trace must still be pending: the first read of ``res.trace`` replaces the
    record with the events."""
    run = _get_trace(res)
    return run.log, run.marks


def _drive(r: _Run, iv: Interval, step, state, epsilon: float | None,
           budget: int | None):
    """Run ``step`` from ``iv`` until a stop rule holds: the loop of halving,
    trichotomy and dichotomous search; see the module docstring.

    After each iteration the loop stops when (b - a)/2 is at most
    ``epsilon`` or when at least ``budget`` evaluations are spent.  An
    iteration that leaves no smaller non-empty bracket ends the run, as an
    event on the bracket it started from.  Returns the state of the last
    step.
    """
    a, b = iv.lo, iv.hi
    log, marks = r.log, r.marks
    while True:
        na, nb, state = step(a, b, state)
        length = nb - na
        if not 0.0 < length < b - a:    # the float64 floor: an event on [a, b]
            marks.append((a, b, len(log)))
            return state
        marks.append((na, nb, len(log)))
        if epsilon is not None and length / 2 <= epsilon:
            return state
        if budget is not None and len(log) >= budget:
            return state
        a, b = na, nb


def _halving(r: _Run, probe, iv: Interval, stop: StopRule) -> tuple[float, float]:
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
    return _drive(r, iv, step, (x2, probe(x2)), stop.epsilon, stop.budget)


def _trichotomy(r: _Run, probe, iv: Interval, stop: StopRule) -> tuple[float, float]:
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
    return _drive(r, iv, step, (x3, probe(x3)), stop.epsilon, stop.budget)


def _dichotomous(r: _Run, probe, iv: Interval, stop: StopRule) -> tuple[float, float]:
    """Dichotomous search: probe a symmetric pair around the bracket midpoint.

    Each iteration evaluates f(m - delta/2) and f(m + delta/2) at the current
    midpoint m and keeps [a, m + delta/2] or [m - delta/2, b], with the offset
    delta = min(epsilon/2, L*1e-6) under an epsilon stop and L*1e-6 under a
    budget, for the bracket length L.  The estimate is the midpoint of the
    final bracket, evaluated as a final answer probe; under a budget that
    cannot afford the answer probe, the better probe of the last completed
    pair is returned instead (it lies in the final bracket).  Budget
    affordability is checked per pair, so a trailing odd evaluation funds the
    answer probe rather than half a pair: a budget of N spends at most N
    evaluations, and exactly N unless an iteration leaves no smaller bracket
    first.
    """
    length, epsilon = iv.length(), stop.epsilon
    delta = length * 1e-6
    if epsilon is not None:
        delta = min(epsilon / 2, delta)
    if not delta > 0.0:     # a zero offset would probe one point twice
        cause = (f"length*1e-6 on a bracket of length {length!r}" if length * 1e-6 == 0.0
                 else f"epsilon/2 at epsilon={epsilon!r}")
        raise ValueError(f"dichotomous delta = {cause} underflows to 0.0")

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
    state = _drive(r, iv, step, None, stop.epsilon, budget)
    # the answer probe, or else the better probe of the last pair
    return r.answer(probe) if budget is None or len(r.log) <= budget else state


def _two_probe(r: _Run, probe, iv: Interval, t_open: float, ratios,
               epsilon: float | None) -> tuple[float, float]:
    """The loop of golden section and Fibonacci; returns the survivor.

    ``ratios`` yields one ``(t_low, t_high)`` per iteration, and its length
    is the budget: the opening probe and one probe per pair, so N - 1 pairs
    spend N evaluations, and the loop ends when they run out.  The run opens
    with a probe at a + t_open*(b - a), the t_low of the first pair, paid
    here; each iteration probes the missing one of a + t_low*(b - a) and
    a + t_high*(b - a), compares the two, and keeps [a, x_high] or
    [x_low, b].  The probe kept inside is the survivor, and the next probe
    goes on the other side of it.  Each iteration closes as in
    :func:`_drive`, floor rule included, except that epsilon bounds the
    full length b - a and no budget is tested.  The close is written out
    here rather than shared: a call per iteration is a call per evaluation.
    """
    a, b = iv.lo, iv.hi
    log, marks = r.log, r.marks
    x = a + t_open * (b - a)
    fx = probe(x)
    low = False
    for t_low, t_high in ratios:
        if low:
            xl = a + t_low * (b - a)
            f_l = probe(xl)
            xh, f_h = x, fx
        else:
            xh = a + t_high * (b - a)
            f_h = probe(xh)
            xl, f_l = x, fx
        if f_l <= f_h:
            na, nb = a, xh
            x, fx, low = xl, f_l, True
        else:
            na, nb = xl, b
            x, fx, low = xh, f_h, False
        length = nb - na
        if not 0.0 < length < b - a:    # the float64 floor: an event on [a, b]
            marks.append((a, b, len(log)))
            return x, fx
        marks.append((na, nb, len(log)))
        if epsilon is not None and length <= epsilon:
            return x, fx
        a, b = na, nb
    return x, fx


def _golden(r: _Run, probe, iv: Interval, stop: StopRule) -> tuple[float, float]:
    """Golden-section search with two interior points at the 1/phi split.

    Probes sit at a + (1 - 1/phi)*L and a + (1/phi)*L; after the first
    iteration (two evaluations) each iteration reuses the surviving point and
    pays one new evaluation, shrinking the bracket by the factor 1/phi.  With
    an epsilon stop the loop runs while (b - a) > epsilon -- the full length,
    not the half-width -- and then evaluates the returned estimate, the
    midpoint of the final bracket, as one extra answer probe.  Under a budget
    the method spends everything on shrink steps (N evaluations, or fewer at
    the float64 floor) and returns the survivor, which lies in the final
    bracket and holds the least value of the run.  The schedule's length is
    the budget: N - 1 pairs under a budget N, endless under epsilon.
    """
    pair, n = (1 - _INVPHI, _INVPHI), stop.budget
    ratios = repeat(pair) if n is None else repeat(pair, n - 1)
    x, fx = _two_probe(r, probe, iv, pair[0], ratios, stop.epsilon)
    return r.answer(probe) if n is None else (x, fx)


# F(m-1)/F(m) alternates around 1/phi with shrinking error, so the ratios of
# stages 43 and 44 bracket those of every later stage; both round to the same
# float64, and so do their F(m-2)/F(m).  Stage 43's pair stands for every m >= 43.
_FIB = [1, 1]              # F(0) = F(1) = 1, ..., F(43)
while len(_FIB) <= 43:
    _FIB.append(_FIB[-1] + _FIB[-2])
# (t_low, t_high) = (F(m-2)/F(m), F(m-1)/F(m)) of the stage with index m >= 2
_FIB_STAGES = [None, None] + [(_FIB[m - 2] / _FIB[m], _FIB[m - 1] / _FIB[m])
                              for m in range(2, len(_FIB))]


def _fibonacci(r: _Run, probe, iv: Interval, stop: StopRule) -> tuple[float, float]:
    """Fibonacci search consuming exactly N evaluations, or fewer at the floor.

    N is the budget of ``stop``; under an epsilon stop it is planned as the
    fewest evaluations with length/F(N + 1) <= epsilon, and the run is then
    the budget-N run.  The plan stops where F(N + 1) leaves float64, from
    N = 1475 on, with ``ValueError``.  With F(0) = F(1) = 1, the stage with
    index m places interior points at a + F(m-2)/F(m)*L and
    a + F(m-1)/F(m)*L; the ladder starts at m = N + 1 and pays one new
    evaluation per stage, so its N - 1 stages are the schedule whose length
    is the budget.  The run ends with the surviving probe at the
    midpoint of a bracket two lattice units wide, and that evaluated midpoint
    is the estimate, so the error is at most length/F(N + 1), the final
    half-width -- no tie-breaking offset probe is needed.  An iteration that
    leaves no smaller non-empty bracket ends the run early, as an event on
    the bracket it started from, and the survivor, which lies in that
    bracket, is the estimate.
    """
    n = stop.budget
    if n is None:
        length, n, f_n, f_next = iv.length(), 2, 2, 3      # N, F(N), F(N + 1)
        try:
            while length / f_next > stop.epsilon:
                n, f_n, f_next = n + 1, f_next, f_n + f_next
        except OverflowError:
            raise ValueError(f"no Fibonacci budget reaches epsilon={stop.epsilon!r} on "
                             f"length {length!r}: F(N + 1) leaves float64 first") from None
    ladder = _FIB_STAGES[n + 1:2:-1]    # stages m = min(N + 1, 43), ..., 3
    # N - 1 pairs: stages N + 1, ..., 44 repeat stage 43's pair (none if N < 43)
    return _two_probe(r, probe, iv, ladder[0][0], chain(repeat(ladder[0], n - 42), ladder), None)


_METHODS = {
    Method.HALVING: _halving,
    Method.TRICHOTOMY: _trichotomy,
    Method.DICHOTOMOUS: _dichotomous,
    Method.GOLDEN: _golden,
    Method.FIBONACCI: _fibonacci,
}


def minimize(method: Method | str, obj: Objective, iv: Interval, stop: StopRule) -> RunResult:
    """Run ``method`` on ``obj`` over ``iv`` under ``stop``; the one entry point.

    ``method`` is a :class:`Method` or its value.  Every method accepts both
    stop rules and derives its own parameters before its first evaluation:
    dichotomous search its probe offset delta = min(epsilon/2, L*1e-6), or
    L*1e-6 under a budget, for the bracket length L (a delta that underflows
    to 0 raises ``ValueError``); Fibonacci search its number of evaluations N,
    the budget, or under an epsilon stop the fewest N with L/F(N+1) <= epsilon
    (``ValueError`` when F(N+1) would leave float64 first).

    Each method keeps ``stop`` as follows, checked between iterations:

    ===========  ============================  ==================
    method       an epsilon stop ends once     a budget N spends
    ===========  ============================  ==================
    halving      (b - a)/2 <= epsilon          N or N+1
    trichotomy   (b - a)/2 <= epsilon          N, N+1 or N+2
    dichotomous  (b - a)/2 <= epsilon, then    exactly N, or fewer
                 one answer probe              at the floor
    golden       b - a <= epsilon, then one    exactly N, or fewer
                 answer probe                  at the floor
    fibonacci    the planned N evaluations,    exactly N, or fewer
                 the fewest with L/F(N+1)      at the floor
                 <= epsilon
    ===========  ============================  ==================

    Every method keeps one floor rule: an iteration that leaves no smaller
    non-empty bracket ends the run, as an event on the bracket it started
    from.  So a budget run may spend fewer than the table says at the
    float64 floor or, for dichotomous search, as its length nears delta.

    A non-finite value of the objective raises :class:`NonFiniteValue`, with
    the events the run closed as its ``partial_trace``.  The iteration it cut
    short is one more event, on the bracket that iteration started from, when
    it paid for probes; a failure at an opening probe carries ``()``.
    """
    try:
        body = _METHODS[method]
    except (KeyError, TypeError):   # not a Method or its value: Method() says why
        body = _METHODS[Method(method)]
    r = _Run(obj, iv)
    try:
        return r.result(*body(r, obj.evaluate, iv, stop))
    except NonFiniteValue as e:
        lo, hi, end = r.marks[-1]
        if len(r.log) > end:    # the iteration cut short paid probes
            r.marks.append((lo, hi, len(r.log)))
        e.partial_trace = tuple(_events(r.log, r.marks))
        raise
    finally:                    # a finished run's record never changes again
        del obj._log            # back to the class's sink
