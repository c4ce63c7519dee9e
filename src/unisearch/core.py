"""Shared domain types for the bracketing minimizers.

Everything here is plain float64: intervals, an instrumented objective
wrapper, stop rules, and the run/trace records the solvers emit.  The
objective wrapper is the one evaluation path of a run: it refuses an
overflowed probe, counts the call, checks the value and appends the pair to
the probe log the run passes it, in one frame per evaluation.

A run builds one :class:`TraceEvent`, its last, and reading its trace
builds one more event and one :class:`Interval` per iteration, so the
records are slotted frozen dataclasses whose hand-written ``__init__``
stores each field through its slot descriptor, bound once below the class.
The generated frozen ``__init__`` stores through ``object.__setattr__``
instead and, on CPython 3.11, costs 1.5 to 1.8 times as much.

A solver stores a pending builder in ``RunResult.trace``: the trace is
built on its first read, once, and that read happens wherever the field is
read, equality, hashing, copying, pickling and ``dataclasses.replace``
included.  ``repr`` leaves the trace out and so does not build it.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Callable


class NonFiniteValue(ValueError):
    """The objective produced NaN or +/-inf; the run fails.

    When raised from inside a solver the exception carries the iterations
    completed so far in ``partial_trace``.  It is the only objective failure
    the solvers handle: any other exception raised by the function
    propagates unchanged and without a trace, while :attr:`Objective.count`
    still reports the evaluations paid before it.
    """

    def __init__(self, message: str, x: float | None = None):
        super().__init__(message)
        self.x = x
        self.partial_trace: tuple[TraceEvent, ...] = ()


def _check_count(value, minimum: int, what: str) -> int:
    """``value`` as the Python int it equals.  ``ValueError`` unless it is an
    integer (a NumPy one too) but not a bool (a NumPy bool is no
    ``Integral``), and at least ``minimum``."""
    # int first: it spares a Python int the ABC check, which costs about 0.35 µs
    if not isinstance(value, (int, Integral)) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _check_positive(value, what: str) -> float:
    """``value`` as the Python float it equals, as :class:`Interval` stores an
    endpoint.  ``ValueError`` unless it is a real number (a NumPy one too) but
    not a bool, and that float is positive and finite: NaN, 0 or less, a value
    that rounds to 0.0 and one above the largest float64 all fail."""
    try:    # float first, as int in _check_count
        if (isinstance(value, (float, Real)) and not isinstance(value, bool)
                and 0.0 < float(value) < math.inf):
            return float(value)
    except OverflowError:   # an int beyond float64
        pass
    raise ValueError(f"{what} must be positive and finite, got {value!r}")


@dataclass(frozen=True, slots=True, init=False)
class Interval:
    """A non-degenerate closed interval [lo, hi] with a finite length.  Each
    endpoint is stored as the Python float it equals, by the rule of
    :func:`_check_positive`: an int as the float64 it rounds to, refused when
    float64 cannot hold it, and a NumPy scalar as its value, so a float32
    bracket runs in float64 arithmetic.  A bool (NumPy's too), a string and
    anything else that is not a real number raise ``ValueError``."""

    lo: float
    hi: float

    def __init__(self, lo: float, hi: float) -> None:
        if type(lo) is not float or type(hi) is not float:  # a Python float is its own value
            # int first, as in _check_count; a NumPy bool is no Real
            if not all(isinstance(v, (int, Real)) and type(v) is not bool for v in (lo, hi)):
                raise ValueError(f"interval endpoints must be real numbers, got [{lo!r}, {hi!r}]")
            try:
                lo, hi = float(lo), float(hi)
            except OverflowError:
                raise ValueError(f"interval endpoints must fit in float64, got [{lo}, {hi}]") from None
        # a positive finite length implies lo < hi and finite endpoints, and
        # keeps probes at lo + t*(hi - lo) finite; NaN fails the comparison
        if not 0.0 < hi - lo < math.inf:
            raise ValueError(
                f"interval requires lo < hi and a finite length, got [{lo}, {hi}]"
            )
        _set_lo(self, lo)
        _set_hi(self, hi)

    def length(self) -> float:
        return self.hi - self.lo


_set_lo, _set_hi = Interval.lo.__set__, Interval.hi.__set__

_SINK = deque((), 0)    # the log of a direct call: appends keep nothing


class Objective:
    """Counted wrapper around a scalar function of one real variable, and the
    one evaluation path of every run.

    Parameters
    ----------
    fn : callable
        Maps a float to something float() accepts (plain Python floats and
        numpy scalars both work).

    :meth:`evaluate` refuses a non-finite ``x`` with ``ValueError`` before
    ``fn`` sees it; in a run, that is a probe sum that overflowed float64, and
    the message says so.  ``count`` increases by exactly one per performed
    evaluation and is never reset or decremented.  A non-finite result
    raises :class:`NonFiniteValue` (the invocation still counts: it
    happened).  Every other ``(x, f(x))`` is appended to ``log``: a run
    passes its own probe log, and a direct call, which passes none, writes to
    a sink that keeps nothing.  So an Objective holds only ``fn`` and
    ``count``, runs on it may nest, and a direct call never joins a run's
    record.
    """

    def __init__(self, fn: Callable[[float], float]):
        self.fn = fn
        self.count = 0

    def evaluate(self, x: float, log=_SINK) -> float:
        if x - x != 0.0:    # a non-finite x: in a run, the probe sum overflowed
            raise ValueError(f"x={x!r} is not a finite float" if log is _SINK else
                             f"probe x={x!r} overflowed float64: the bracket's endpoints "
                             "are too large in magnitude for its probe arithmetic")
        y = float(self.fn(x))
        self.count += 1
        if y - y != 0.0:    # inf - inf and nan - nan are nan
            raise NonFiniteValue(f"objective returned {y!r} at x={x!r}", x=x)
        log.append((x, y))
        return y


@dataclass(frozen=True)
class StopRule:
    """Termination rule: exactly one of ``epsilon`` or ``budget``.

    Both are checked between iterations, never inside one, and each method
    keeps them in its own way (the table in :func:`unisearch.solvers.minimize`);
    every method accepts both:

    * ``StopRule(epsilon=e)`` — stop once the bracket half-width (b-a)/2 <= e;
      golden section tests the full length b-a <= e instead.  Golden section
      and dichotomous search then pay one answer probe at the midpoint.
      Fibonacci search instead plans the fewest N evaluations with
      length/F(N+1) <= e and runs the budget-N run.
    * ``StopRule(budget=n)``, n >= 2 — halving spends n or n+1 evaluations
      and trichotomy n to n+2, since the iteration in progress finishes;
      dichotomous, golden and Fibonacci search spend exactly n.  A run may
      stop short of n: an iteration that leaves no smaller non-empty
      bracket ends the run, as an event on the bracket it started from.
      That happens at the float64 floor, or near delta for dichotomous
      search.

    ``epsilon`` is stored as the Python float it equals and ``budget`` as the
    Python int, as :class:`Interval` stores its endpoints, so an ``np.float32``
    epsilon or an ``np.int64`` budget runs exactly as the Python number of the
    same value.  Anything else raises ``ValueError``: a bool, an epsilon that
    is NaN, at most 0 or above the largest float64, and a budget that is not
    an integer or is below 2.
    """

    epsilon: float | None = None
    budget: int | None = None

    def __post_init__(self) -> None:
        if (self.epsilon is None) == (self.budget is None):
            raise ValueError("provide exactly one of epsilon or budget")
        if self.epsilon is not None:
            object.__setattr__(self, "epsilon", _check_positive(self.epsilon, "epsilon"))
        if self.budget is not None:
            object.__setattr__(self, "budget", _check_count(self.budget, 2, "budget"))


@dataclass(frozen=True, slots=True, init=False)
class TraceEvent:
    """One solver iteration: the probes it paid for and the bracket it left."""

    iteration: int                       # 1-based
    interval_after: Interval
    evals_this_iter: int
    probes: tuple[tuple[float, float], ...]   # (x, f(x)) pairs, in evaluation order

    def __init__(self, iteration: int, interval_after: Interval, evals_this_iter: int,
                 probes: tuple[tuple[float, float], ...]) -> None:
        _set_iteration(self, iteration)
        _set_interval_after(self, interval_after)
        _set_evals_this_iter(self, evals_this_iter)
        _set_probes(self, probes)


_set_iteration = TraceEvent.iteration.__set__
_set_interval_after = TraceEvent.interval_after.__set__
_set_evals_this_iter = TraceEvent.evals_this_iter.__set__
_set_probes = TraceEvent.probes.__set__


@dataclass(frozen=True, slots=True, init=False)
class RunResult:
    """Outcome of one minimization run.

    ``trace`` may be given as a callable that returns the tuple; it is then
    called on the first read of ``trace``, once (see the module docstring).
    """

    x_min: float
    f_min: float
    n_evals: int
    n_iters: int
    final_interval: Interval
    trace: tuple[TraceEvent, ...] = field(repr=False, default=())

    def __init__(self, x_min: float, f_min: float, n_evals: int, n_iters: int,
                 final_interval: Interval, trace: tuple[TraceEvent, ...] = ()) -> None:
        _set_x_min(self, x_min)
        _set_f_min(self, f_min)
        _set_n_evals(self, n_evals)
        _set_n_iters(self, n_iters)
        _set_final_interval(self, final_interval)
        _set_trace(self, trace)


_set_x_min = RunResult.x_min.__set__
_set_f_min = RunResult.f_min.__set__
_set_n_evals = RunResult.n_evals.__set__
_set_n_iters = RunResult.n_iters.__set__
_set_final_interval = RunResult.final_interval.__set__
_get_trace, _set_trace = RunResult.trace.__get__, RunResult.trace.__set__


class _LazyTrace:
    """``RunResult.trace`` over its slot: a callable stored there is a pending
    builder, called on the first read and replaced by the tuple it returns."""

    def __get__(self, res, owner=None):
        if res is None:
            return self
        trace = _get_trace(res)
        if callable(trace):
            trace = trace()
            _set_trace(res, trace)
        return trace

    def __set__(self, res, trace) -> None:
        _set_trace(res, trace)


RunResult.trace = _LazyTrace()
