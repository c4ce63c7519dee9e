"""Domain-type behavior: Interval, Objective, StopRule, RunResult."""
import copy
import dataclasses
import inspect
import math
import pickle
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from unisearch import core, solvers
from unisearch.core import (
    Interval,
    NonFiniteValue,
    Objective,
    RunResult,
    StopRule,
    TraceEvent,
)
from unisearch.solvers import Method, minimize


def _pickled(obj):
    return pickle.loads(pickle.dumps(obj))


class _CopyingOnFirstCall:
    """(x - 0.3)**2 that takes one ``clone`` of its Objective ``obj`` on its
    first call, so inside that Objective's run; picklable, as the Objective is."""

    def __init__(self, clone):
        self.clone, self.obj, self.copies = clone, None, []

    def __call__(self, x):
        if not self.copies:
            self.copies.append(self.clone(self.obj))
        return (x - 0.3) ** 2


class TestInterval:
    def test_length(self):
        assert Interval(0.5, 2.0).length() == 1.5

    def test_no_midpoint_or_contains(self):
        # removed: compare with lo and hi inline
        iv = Interval(0.5, 2.0)
        assert not hasattr(iv, "midpoint")
        assert not hasattr(iv, "contains")

    @pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (2.0, 1.0), (0.0, -0.0)])
    def test_rejects_empty_and_reversed(self, lo, hi):
        with pytest.raises(ValueError):
            Interval(lo, hi)

    # the last: finite endpoints, but the length overflows to inf
    @pytest.mark.parametrize("lo,hi", [(math.nan, 1.0), (0.0, math.inf),
                                       (-math.inf, 0.0), (-1e308, 1e308)])
    def test_rejects_non_finite(self, lo, hi):
        with pytest.raises(ValueError):
            Interval(lo, hi)

    def test_immutable(self):
        iv = Interval(0.0, 1.0)
        with pytest.raises(AttributeError):
            iv.lo = 5.0

    def test_int_endpoints_are_float64(self):
        iv = Interval(0, 1)
        assert (iv.lo, iv.hi) == (0.0, 1.0)
        assert type(iv.lo) is type(iv.hi) is float

    # the first does not fit in float64; the second is empty once rounded
    @pytest.mark.parametrize("lo,hi", [(0, 10 ** 400), (2 ** 53, 2 ** 53 + 1)],
                             ids=["overflow", "empty"])
    def test_rejects_ints_float64_cannot_hold(self, lo, hi):
        with pytest.raises(ValueError):
            Interval(lo, hi)

    # an endpoint is a real number: float() alone would take a string
    def test_rejects_strings(self):
        with pytest.raises(ValueError, match="must be real numbers"):
            Interval("0", "1")

    # a bool is no endpoint, as it is no epsilon
    @pytest.mark.parametrize("lo,hi", [(True, 2), (0.0, True), (np.False_, np.True_),
                                       (np.False_, 1.0), (None, 1.0), (0.0, 1j),
                                       (np.array(0.0), 1.0)],
                             ids=["bool", "bool-hi", "numpy-bool", "numpy-bool-lo", "none",
                                  "complex", "array"])
    def test_rejects_what_is_no_real_number(self, lo, hi):
        with pytest.raises(ValueError, match="must be real numbers"):
            Interval(lo, hi)

    def test_real_number_endpoints(self):
        iv = Interval(Fraction(1, 4), np.int64(3))
        assert (iv.lo, iv.hi) == (0.25, 3.0) and type(iv.lo) is type(iv.hi) is float

    def test_keeps_the_sign_of_zero(self):
        assert math.copysign(1.0, Interval(-0.0, 1.0).lo) == -1.0

    @pytest.mark.parametrize("scalar", [np.float32, np.float64], ids=lambda t: t.__name__)
    def test_numpy_endpoints_are_python_floats(self, scalar):
        iv = Interval(scalar(0.1), scalar(1.7))
        assert (iv.lo, iv.hi) == (float(scalar(0.1)), float(scalar(1.7)))
        assert type(iv.lo) is type(iv.hi) is float

    @pytest.mark.parametrize("method", list(Method), ids=str)
    @pytest.mark.parametrize("scalar", [np.float32, np.float64], ids=lambda t: t.__name__)
    def test_numpy_bracket_runs_as_its_float_bracket(self, scalar, method):
        # probe for probe and type for type: a float32 bracket once ran in
        # float32 and stopped at its floor, an np.float64 one in NumPy scalars
        def f(x):
            return (x - 0.3) ** 2

        for lo, hi in ((0, 1), (0.1, 1.7)):
            for stop in (StopRule(epsilon=1e-12), StopRule(budget=20)):
                got = minimize(method, Objective(f), Interval(scalar(lo), scalar(hi)), stop)
                want = minimize(method, Objective(f),
                                Interval(float(scalar(lo)), float(scalar(hi))), stop)
                assert repr((got, solvers._trace_record(got))) == \
                       repr((want, solvers._trace_record(want)))

    def test_float32_bracket_runs_past_float32s_floor(self):
        # float32 arithmetic stopped this run after 39 evaluations
        res = minimize(Method.GOLDEN, Objective(lambda x: (x - 0.3) ** 2),
                       Interval(np.float32(0), np.float32(1)), StopRule(epsilon=1e-12))
        assert res.n_evals == 60
        assert type(res.x_min) is float

    def test_int_bracket_plans_fibonacci_as_a_float_one(self):
        # an exact int length once let the plan pass float64's Fibonacci numbers
        stop = StopRule(epsilon=1e-320)
        with pytest.raises(ValueError) as want:
            minimize(Method.FIBONACCI, Objective(abs), Interval(0.0, 1.0), stop)
        with pytest.raises(ValueError) as got:
            minimize(Method.FIBONACCI, Objective(abs), Interval(0, 1), stop)
        assert str(got.value) == str(want.value)


class TestObjective:
    def test_counts_every_evaluation(self):
        obj = Objective(lambda x: x * x)
        assert obj.count == 0
        assert obj.evaluate(2.0) == 4.0
        assert obj.count == 1
        obj.evaluate(3.0)
        assert obj.count == 2

    def test_evaluate_is_the_only_call(self):
        assert not callable(Objective(lambda x: x))

    def test_takes_no_budget(self):
        # StopRule(budget=N) is the one budget a run keeps
        with pytest.raises(TypeError):
            Objective(lambda x: x, budget=3)

    def test_raising_function_propagates_uncounted(self):
        # a hard wall is the caller's own exception: the call that raises is
        # not an evaluation paid, so the count stays at the calls that returned
        class Wall(Exception):
            pass

        calls = []

        def f(x):
            calls.append(x)
            if len(calls) > 1:
                raise Wall
            return x

        obj = Objective(f)
        obj.evaluate(1.0)
        with pytest.raises(Wall):
            obj.evaluate(2.0)
        assert calls == [1.0, 2.0]
        assert obj.count == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_raises_and_counts(self, bad):
        obj = Objective(lambda x: bad)
        with pytest.raises(NonFiniteValue) as info:
            obj.evaluate(0.5)
        assert obj.count == 1       # the call happened, so it is counted
        assert info.value.x == 0.5

    def test_registry_reciprocal_row(self):
        # 2/x^2 at -1 evaluates to 2; the count advances by exactly 1
        obj = Objective(lambda x: 2.0 / (x * x))
        assert obj.evaluate(-1.0) == 2.0
        assert obj.count == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_raises_before_the_call(self, bad):
        # refused, not evaluated or counted; a direct call has no bracket, so
        # the message names no overflow
        calls = []
        obj = Objective(lambda x: calls.append(x) or 1.0)
        with pytest.raises(ValueError) as info:
            obj.evaluate(bad)
        assert str(info.value) == f"x={bad!r} is not a finite float"
        assert not isinstance(info.value, NonFiniteValue)
        assert calls == []
        assert obj.count == 0

    def test_non_finite_x_in_a_run_names_the_overflow(self):
        # in a run a non-finite x is a probe sum: here (a + b)/2 overflows
        obj = Objective(lambda x: 1.0)
        with pytest.raises(ValueError) as info:
            minimize("halving", obj, Interval(1e308, 1.5e308), StopRule(budget=10))
        assert str(info.value) == ("probe x=inf overflowed float64: the bracket's endpoints "
                                   "are too large in magnitude for its probe arithmetic")
        assert obj.count == 0

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
                             ids=["deepcopy", "pickle"])
    def test_a_copy_is_outside_a_run(self, clone):
        # a copy carries no log of its own: a direct call names no overflow
        twin = clone(Objective(abs))
        with pytest.raises(ValueError) as info:
            twin.evaluate(math.nan)
        assert str(info.value) == "x=nan is not a finite float"

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, _pickled],
                             ids=["copy", "deepcopy", "pickle"])
    def test_a_copy_taken_in_a_run_is_outside_it(self, clone):
        # the copy once carried the run's log: it stayed in a run for good,
        # its direct calls joined the finished run's record (shared by a
        # shallow copy) and a NaN was named a probe overflow
        fn = _CopyingOnFirstCall(clone)
        obj = fn.obj = Objective(fn)
        iv, stop = Interval(0.0, 1.0), StopRule(budget=10)
        res = minimize(Method.GOLDEN, obj, iv, stop)
        log, _ = solvers._trace_record(res)
        twin, = fn.copies
        assert sorted(vars(twin)) == ["count", "fn"] and twin.count == 0
        twin.evaluate(0.5)
        assert len(log) == res.n_evals == 10
        with pytest.raises(ValueError) as info:
            twin.evaluate(math.nan)
        assert str(info.value) == "x=nan is not a finite float"
        again = minimize(Method.GOLDEN, twin, iv, stop)
        assert again.trace == res.trace
        assert twin.count == 11 and obj.count == 10

    def test_a_deep_copy_runs_on_its_own_count(self):
        obj = Objective(abs)
        obj.evaluate(0.5)
        twin = copy.deepcopy(obj)
        iv, stop = Interval(-1.0, 2.0), StopRule(budget=20)
        res = minimize(Method.GOLDEN, twin, iv, stop)
        assert (obj.count, twin.count) == (1, 1 + res.n_evals)
        assert res.trace == minimize(Method.GOLDEN, Objective(abs), iv, stop).trace
        assert "_log" not in vars(twin)     # the run left no log behind

    def test_direct_calls_keep_no_pairs(self):
        obj = Objective(lambda x: x * x)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(10_000):
                obj.evaluate(i + 0.5)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert obj.count == 10_000
        assert grown < 10_000 * 8   # well below one kept pair per call

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=50))
    def test_count_is_monotone(self, xs):
        obj = Objective(lambda x: abs(x))
        seen = [obj.count]
        for x in xs:
            obj.evaluate(x)
            seen.append(obj.count)
        assert seen == list(range(len(xs) + 1))


class TestStopRule:
    def test_exactly_one_criterion(self):
        with pytest.raises(ValueError):
            StopRule()
        with pytest.raises(ValueError):
            StopRule(epsilon=0.1, budget=10)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            StopRule(epsilon=0.0)
        with pytest.raises(ValueError):
            StopRule(epsilon=-1.0)
        with pytest.raises(ValueError):
            StopRule(epsilon=math.inf)
        with pytest.raises(ValueError):     # True is an int, not an epsilon of 1
            StopRule(epsilon=True)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            StopRule(budget=1)
        with pytest.raises(ValueError):
            StopRule(budget=10.0)
        with pytest.raises(ValueError):
            StopRule(budget=True)

    @pytest.mark.parametrize("scalar", [np.float32, np.float64], ids=lambda t: t.__name__)
    def test_numpy_epsilon_is_its_python_float(self, scalar):
        stop = StopRule(epsilon=scalar(1e-6))
        assert type(stop.epsilon) is float and stop.epsilon == float(scalar(1e-6))
        assert stop == StopRule(epsilon=float(scalar(1e-6)))

    @pytest.mark.parametrize("scalar", [np.int64, np.int32, np.uint8], ids=lambda t: t.__name__)
    def test_numpy_budget_is_its_python_int(self, scalar):
        # a NumPy integer budget was once refused
        stop = StopRule(budget=scalar(20))
        assert type(stop.budget) is int and stop == StopRule(budget=20)

    def test_refuses_bools_and_numbers_beyond_float64(self):
        # an epsilon above the largest float64, or a NumPy bool, was once taken
        # as given; each is refused, as a bool is, with the one message
        for bad in (10**400, 2**1024 - 2**970, np.longdouble("1e400"), Fraction(10**400),
                    np.True_, True, "1e-6", 1j):
            with pytest.raises(ValueError, match="^epsilon must be positive and finite, got "):
                StopRule(epsilon=bad)
        # a positive number that rounds to 0.0 would be an epsilon of 0
        with pytest.raises(ValueError):
            StopRule(epsilon=Fraction(1, 10**400))
        for bad in (np.True_, np.False_, True, np.float64(20.0), "20"):
            with pytest.raises(ValueError, match="^budget must be an integer >= 2, got "):
                StopRule(budget=bad)
        # the largest float64 and the least subnormal are both epsilons
        assert StopRule(epsilon=10**308).epsilon == 1e308
        assert StopRule(epsilon=Fraction(5e-324)).epsilon == 5e-324

    def test_check_helpers_raise_value_error_only(self):
        # the one error of each, with no error-type option to swap it
        assert list(inspect.signature(core._check_positive).parameters) == ["value", "what"]
        assert list(inspect.signature(core._check_count).parameters) == \
               ["value", "minimum", "what"]

    def test_numpy_epsilon_runs_as_its_python_float(self):
        # probe for probe and type for type, for every method: a NumPy
        # epsilon once ran dichotomous search in NumPy scalar arithmetic
        def f(x):
            return (x - 0.7123456789) ** 2

        def run(method, iv, epsilon):
            res = minimize(method, Objective(f), iv, StopRule(epsilon=epsilon))
            return repr((res, solvers._trace_record(res)))

        differ = [(method.value, iv, scalar.__name__, e) for method in Method
                  for iv in (Interval(0.0, 1.0), Interval(-0.3, 2.9))
                  for scalar in (np.float32, np.float64) for e in (1e-3, 1e-6, 1e-9, 1e-12)
                  if run(method, iv, scalar(e)) != run(method, iv, float(scalar(e)))]
        assert differ == []

    def test_float32_epsilon_finds_the_minimizer(self):
        # at float32's floor this run once answered 3.05e-8 after 61 evaluations
        res = minimize(Method.DICHOTOMOUS, Objective(lambda x: (x - 0.7123456789) ** 2),
                       Interval(0.0, 1.0), StopRule(epsilon=np.float32(1e-9)))
        assert abs(res.x_min - 0.7123456789) <= 2e-10
        assert type(res.x_min) is float


class TestTraceEvent:
    def test_fields(self):
        ev = TraceEvent(1, Interval(0.0, 1.0), 2, ((0.25, 5.0), (0.75, 3.0)))
        assert ev.iteration == 1
        assert ev.evals_this_iter == 2
        assert ev.probes[1] == (0.75, 3.0)


def _records():
    """One fresh Interval, TraceEvent and RunResult, built positionally."""
    ev = TraceEvent(1, Interval(0.25, 0.75), 2, ((0.25, 5.0), (0.75, 3.0)))
    return [Interval(0.0, 1.0), ev, RunResult(0.75, 3.0, 2, 1, Interval(0.25, 0.75), (ev,))]


class TestRecordContract:
    """The run records are frozen, slotted value types."""

    @pytest.mark.parametrize("i", range(3))
    def test_frozen_and_slotted(self, i):
        rec = _records()[i]
        for f in dataclasses.fields(rec):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rec, f.name, 0)
        assert not hasattr(rec, "__dict__")

    @pytest.mark.parametrize("i", range(3))
    def test_equality_and_hash_by_value(self, i):
        rec, twin = _records()[i], _records()[i]
        assert rec is not twin
        assert rec == twin and hash(rec) == hash(twin)
        first = dataclasses.fields(rec)[0].name
        assert rec != dataclasses.replace(rec, **{first: getattr(rec, first) - 1})

    def test_repr(self):
        iv, ev, res = _records()
        assert repr(iv) == "Interval(lo=0.0, hi=1.0)"
        assert repr(ev) == ("TraceEvent(iteration=1, interval_after=Interval(lo=0.25, "
                            "hi=0.75), evals_this_iter=2, probes=((0.25, 5.0), (0.75, 3.0)))")
        # the trace is left out
        assert repr(res) == ("RunResult(x_min=0.75, f_min=3.0, n_evals=2, n_iters=1, "
                             "final_interval=Interval(lo=0.25, hi=0.75))")

    def test_fields(self):
        names = [[f.name for f in dataclasses.fields(rec)] for rec in _records()]
        assert names == [
            ["lo", "hi"],
            ["iteration", "interval_after", "evals_this_iter", "probes"],
            ["x_min", "f_min", "n_evals", "n_iters", "final_interval", "trace"],
        ]

    def test_keyword_construction_and_default_trace(self):
        iv, ev, res = _records()
        assert Interval(hi=1.0, lo=0.0) == iv
        assert TraceEvent(probes=ev.probes, evals_this_iter=2, interval_after=ev.interval_after,
                          iteration=1) == ev
        assert RunResult(x_min=0.75, f_min=3.0, n_evals=2, n_iters=1,
                         final_interval=res.final_interval, trace=res.trace) == res
        bare = RunResult(0.75, 3.0, 2, 1, res.final_interval)
        assert bare.trace == ()
        assert bare == RunResult(x_min=0.75, f_min=3.0, n_evals=2, n_iters=1,
                                 final_interval=res.final_interval)

    def test_replace(self):
        iv, ev, res = _records()
        assert dataclasses.replace(iv, hi=2.0) == Interval(0.0, 2.0)
        moved = dataclasses.replace(ev, iteration=2)
        assert (moved.iteration, moved.probes) == (2, ev.probes)
        moved = dataclasses.replace(res, x_min=0.5)
        assert (moved.x_min, moved.trace) == (0.5, res.trace)
        # validation runs on every construction, replace included
        message = "interval requires lo < hi and a finite length, got [0.0, -1.0]"
        with pytest.raises(ValueError, match=re.escape(message)):
            Interval(0.0, -1.0)
        with pytest.raises(ValueError, match=re.escape(message)):
            dataclasses.replace(iv, hi=-1.0)

    @pytest.mark.parametrize("i", range(3))
    def test_copy_and_pickle_round_trip(self, i):
        rec = _records()[i]
        copies = [copy.copy(rec), copy.deepcopy(rec)]
        copies += [pickle.loads(pickle.dumps(rec, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for c in copies:
            assert type(c) is type(rec) and c == rec
            assert [getattr(c, f.name) for f in dataclasses.fields(c)] == \
                [getattr(rec, f.name) for f in dataclasses.fields(rec)]



def _run(method=Method.GOLDEN, stop=StopRule(budget=12)):
    """A fresh ``minimize`` result, its trace not read."""
    return minimize(method, Objective(lambda x: (x - 0.3) ** 2), Interval(0.0, 1.0), stop)


_USES = [pytest.param(use, id=name) for name, use in [
    ("eq", lambda res: res == _run()),
    ("hash", hash),
    ("copy", copy.copy),
    ("deepcopy", copy.deepcopy),
    ("replace", lambda res: dataclasses.replace(res, x_min=0.5)),
]] + [pytest.param(lambda res, p=p: pickle.loads(pickle.dumps(res, p)), id=f"pickle{p}")
      for p in range(pickle.HIGHEST_PROTOCOL + 1)]


class TestLazyTrace:
    """A ``minimize`` result builds its trace on the first read, once; every
    use of an unread result agrees with the same use of a read one."""

    def test_repr_does_not_build_the_trace(self, monkeypatch):
        built = []
        event = solvers.TraceEvent
        monkeypatch.setattr(solvers, "TraceEvent", lambda *a: built.append(a) or event(*a))
        res = _run()
        assert len(built) == 1      # the last event, for final_interval
        assert repr(res).startswith("RunResult(x_min=")
        assert len(built) == 1
        assert len(res.trace) == res.n_iters == len(built) > 1

    @pytest.mark.parametrize("use", _USES)
    def test_unread_and_read_agree(self, use):
        unread, read = _run(), _run()
        assert read.trace
        got, want = use(unread), use(read)
        assert got == want
        if isinstance(got, RunResult):
            assert type(got.trace) is tuple and got.trace == read.trace
        assert unread == read and unread.trace == read.trace

    @pytest.mark.parametrize("method", list(Method))
    @pytest.mark.parametrize("stop", [StopRule(epsilon=1e-3), StopRule(budget=9)])
    def test_one_build_shared_by_every_read(self, method, stop):
        res = _run(method, stop)
        trace = res.trace
        assert res.trace is trace and type(trace) is tuple
        assert trace[-1].interval_after is res.final_interval
        assert [ev.iteration for ev in trace] == list(range(1, res.n_iters + 1))
        assert sum(ev.evals_this_iter for ev in trace) == res.n_evals

    def test_callable_trace_is_called_on_first_read(self):
        iv, ev, _ = _records()
        calls = []
        lazy = RunResult(0.75, 3.0, 2, 1, iv, lambda: calls.append(1) or (ev,))
        assert calls == []
        assert lazy.trace == (ev,) and lazy.trace is lazy.trace
        assert calls == [1]

    def test_class_access_gives_the_descriptor(self):
        descriptor = RunResult.__dict__["trace"]
        assert RunResult.trace is descriptor
        assert dict(inspect.getmembers(RunResult))["trace"] is descriptor
