"""Grid oracle: brute-force minima, watched through a recording objective."""
import inspect
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from unisearch.bench import VERIFY_INSET, all_cases, find_case
from unisearch.core import Interval, NonFiniteValue
from unisearch.oracle import _BLOCK, brute_force_minimum


# scalar-only test functions: each refuses an array
def _ties(x):
    return 0.0 if x in (1.0, 3.0) else 1.0


def _scalar_only(x):
    if isinstance(x, np.ndarray):
        raise TypeError("scalar only")
    return (x - 0.25) ** 2


def _plateau(x):
    return max(abs(x) - 0.5, 0.0)


def _narrow_dip(x):
    return x * x - (2.0 if 0.701 < x < 0.702 else 0.0)


def _right_plateau(x):
    # flat from 0.5 to the right end: across the one-point last block
    return max(0.5 - x, 0.0)


def _inset(iv, d):
    """``iv`` with ``d`` trimmed off each end."""
    return Interval(iv.lo + d, iv.hi - d)


def _verify_bracket(case):
    """The bracket verify's oracle scans: ``case``'s, inset by VERIFY_INSET."""
    return _inset(case.interval, case.interval.length() * VERIFY_INSET)


class _Recorder:
    """``f`` as brute_force_minimum's objective.  ``blocks`` keeps every array
    the scan asks for, on entry, so a block that ``f`` refuses, and the scan
    then evaluates point by point, is kept too; ``values`` keeps what ``f``
    returns for each array it takes."""

    def __init__(self, f=lambda x: x):
        self.f, self.blocks, self.values = f, [], []

    def __call__(self, x):
        if not isinstance(x, np.ndarray):
            return self.f(x)
        self.blocks.append(x.copy())
        y = self.f(x)
        self.values.append(np.array(y, dtype=float))
        return y


def _scanned_grid(iv, points):
    """The grid brute_force_minimum scans on ``iv``, block by block."""
    rec = _Recorder()
    brute_force_minimum(rec, iv, points)
    return rec.blocks


class TestPoints:
    def test_defaults(self):
        assert inspect.signature(brute_force_minimum).parameters["points"].default == 1_000_001

    @pytest.mark.parametrize("bad", [2, 2.5, True, 1, 0, -5, 3.0])
    def test_rejected_before_f_is_called(self, bad):
        calls = []
        with pytest.raises(ValueError) as info:
            brute_force_minimum(calls.append, Interval(0.0, 1.0), points=bad)
        assert str(info.value) == f"grid points must be an integer >= 3, got {bad!r}"
        assert calls == []

    def test_numpy_integer_is_its_python_int(self):
        # a NumPy integer count was once refused; a NumPy bool stays refused
        def f(x):
            return (x - 0.3) ** 2

        iv = Interval(0.0, 1.0)
        got = brute_force_minimum(f, iv, points=np.int64(10_001))
        assert repr(got) == repr(brute_force_minimum(f, iv, points=10_001))
        assert brute_force_minimum(f, iv, points=np.uint16(3)) == brute_force_minimum(f, iv, 3)
        with pytest.raises(ValueError):
            brute_force_minimum(f, iv, points=np.True_)


class TestBruteForceMinimum:
    def test_square_hits_zero_exactly(self):
        # 10001 points on [-1, 1] sample x = 0 exactly
        x, fx = brute_force_minimum(lambda x: x * x, Interval(-1.0, 1.0),
                                    points=10_001)
        assert x == 0.0
        assert fx == 0.0

    def test_resolution_scales_with_points(self):
        iv = Interval(0.0, 1.0)
        for points in (101, 10_001):
            x, _ = brute_force_minimum(lambda x: (x - 0.4637) ** 2, iv,
                                       points=points)
            assert abs(x - 0.4637) <= 1.0 / (points - 1)

    def test_tie_breaks_to_lowest_abscissa(self):
        # integer grid 0..4; equal minima at x = 1 and x = 3
        x, fx = brute_force_minimum(_ties, Interval(0.0, 4.0), points=5)
        assert x == 1.0
        assert fx == 0.0

    def test_scalar_only_functions_work(self):
        x, _ = brute_force_minimum(_scalar_only, Interval(0.0, 1.0), points=101)
        assert x == 0.25

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_sample_raises(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(NonFiniteValue) as info:
                brute_force_minimum(lambda x: 1 / x, Interval(-1.0, 1.0), points=3)
        assert info.value.x == 0.0

    def test_inset_trims_endpoints(self):
        # [0, 1] inset by 0.25 is [0.25, 0.75]: 3 points sample 0.25, 0.5, 0.75
        iv = _inset(Interval(0.0, 1.0), 0.25)
        assert (iv.lo, iv.hi) == (0.25, 0.75)
        assert [x for b in _scanned_grid(iv, 3) for x in b] == [0.25, 0.5, 0.75]
        x, fx = brute_force_minimum(lambda x: x, iv, points=3)
        assert x == 0.25
        assert fx == 0.25

    def test_inset_consuming_interval_rejected(self):
        for inset in (0.5, 0.6):
            with pytest.raises(ValueError, match="interval requires lo < hi"):
                _inset(Interval(0.0, 1.0), inset)

    def test_endpoint_minimum_found_without_inset(self):
        x, _ = brute_force_minimum(lambda x: np.exp(-x) + 1 / (1 - x),
                                   Interval(-3.0, 0.0), points=10_001)
        assert x == 0.0


def _whole_grid(f, iv, points):
    """The reference scan: ``f`` on the whole grid in one call (pointwise when
    ``f`` refuses the array), as the oracle did before it scanned in blocks."""
    xs = np.linspace(iv.lo, iv.hi, points)
    try:
        ys = np.asarray(f(xs), dtype=float)
        if ys.shape != xs.shape:
            raise TypeError("not vectorized")
    except (TypeError, ValueError):
        ys = np.fromiter((float(f(x)) for x in xs), dtype=float, count=len(xs))
    return xs, ys


def _reference_unimodal(f, iv, points):
    """The whole-grid verdict: no strict rise before the first minimizer and
    no strict fall after it."""
    _, ys = _whole_grid(f, iv, points)
    k = int(np.argmin(ys))
    d = np.diff(ys)
    return bool(np.all(d[:k] <= 0) and np.all(d[k:] >= 0))


def _bits(values):
    """Floats as their int64 bit patterns, so -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).view(np.int64)


def _integer_grid(n):
    """Interval and point count whose grid is exactly 0.0, 1.0, ..., n - 1."""
    return Interval(0.0, float(n - 1)), n


GRID_SIZES = (3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 10_001, 1_000_001)
_TINY = 5e-324      # the least positive subnormal


@st.composite
def _grids(draw):
    """A bracket, an inset ``d`` that leaves it non-empty, and a point count:
    endpoints of either sign up to about
    1e307, widths from a few ulps of the endpoints to about 1e307, or a few
    subnormals wide near 0, where ``np.linspace``'s step underflows to 0."""
    if draw(st.booleans()):
        lo = draw(st.floats(-1e307, 1e307))
        width = draw(st.one_of(st.floats(1e-300, 1e307),
                               st.integers(1, 1000).map(lambda k: k * math.ulp(lo))))
    else:
        lo = draw(st.integers(-10_000, 10_000)) * _TINY
        width = draw(st.integers(1, 4 * _BLOCK)) * _TINY
    hi = lo + width
    assume(lo < hi and math.isfinite(hi))
    iv = Interval(lo, hi)
    points = draw(st.sampled_from((3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1)))
    share = draw(st.one_of(st.just(0.0), st.just(VERIFY_INSET), st.floats(0.0, 0.45)))
    d = iv.length() * share
    assume(iv.lo + d < iv.hi - d)
    return iv, d, points


_NONFINITE = {"nan": math.nan, "+inf": math.inf, "-inf": -math.inf}


def _failing_scans():
    """Integer grids (point count, {x: non-finite value}, whether ``f`` refuses
    an array) whose scan must stop at the least such x.  Around them ``f`` is
    (x - 3)**2, so a +inf lies behind a finite block minimum."""
    places = {"block 0 first": (4 * _BLOCK, 0), "block 0 last": (4 * _BLOCK, _BLOCK - 1),
              "block 2": (4 * _BLOCK, 2 * _BLOCK + 7),
              "one-point last block": (2 * _BLOCK + 1, 2 * _BLOCK)}
    for (name, value), (place, (points, at)) in itertools.product(_NONFINITE.items(),
                                                                  places.items()):
        yield pytest.param(points, {float(at): value}, False, id=f"{name} at {place}")
    for first, second in (("+inf", "nan"), ("nan", "-inf"), ("-inf", "+inf")):
        bad = {float(_BLOCK + 5): _NONFINITE[first], float(_BLOCK + 9): _NONFINITE[second]}
        yield pytest.param(4 * _BLOCK, bad, False, id=f"{first} before {second}")
    yield pytest.param(3 * _BLOCK, {float(_BLOCK + 3): math.inf}, True, id="scalar-only +inf")


class TestBlockedScan:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(_grids())
    @settings(max_examples=300, deadline=None)
    @example((Interval(-1e307, 1e307), 1.0, _BLOCK + 1))
    def test_blocks_are_linspace_bit_for_bit(self, iv_grid):
        iv, d, points = iv_grid
        xs = np.concatenate(_scanned_grid(_inset(iv, d), points))
        assert np.array_equal(_bits(xs), _bits(np.linspace(iv.lo + d, iv.hi - d, points)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lo, n", [(0.0, 100), (-3 * _TINY, 8), (-_TINY, _BLOCK // 4)])
    @pytest.mark.parametrize("points", [_BLOCK + 1, 2 * _BLOCK + 1])
    def test_zero_step_grid_of_a_subnormal_bracket(self, lo, n, points):
        # the step (hi - lo) / (points - 1) underflows to 0: np.linspace's
        # other branch, which must not raise or warn
        iv = Interval(lo, lo + n * _TINY)
        assert iv.length() / (points - 1) == 0.0
        xs = np.concatenate(_scanned_grid(iv, points))
        assert np.array_equal(_bits(xs), _bits(np.linspace(iv.lo, iv.hi, points)))

    @pytest.mark.parametrize("points", GRID_SIZES)
    @pytest.mark.parametrize("case", all_cases(), ids=lambda c: c.id)
    def test_matches_whole_grid_bit_for_bit(self, case, points):
        # inset 0 samples the poles of several cases; the garbled t1_20 has
        # poles inside its bracket
        for iv in (case.interval, _verify_bracket(case)):
            with np.errstate(all="ignore"):
                xs, ys = _whole_grid(case.fn, iv, points)
                bad = ~np.isfinite(ys)
                if bad.any():
                    with pytest.raises(NonFiniteValue) as info:
                        brute_force_minimum(case.fn, iv, points)
                    assert _bits(info.value.x) == _bits(xs[np.argmax(bad)])
                    continue
                rec = _Recorder(case.fn)
                result = brute_force_minimum(rec, iv, points)
            assert all(len(b) == _BLOCK for b in rec.blocks[:-1])
            assert np.array_equal(_bits(np.concatenate(rec.blocks)), _bits(xs))
            assert np.array_equal(_bits(np.concatenate(rec.values)), _bits(ys))
            k = int(np.argmin(ys))
            assert np.array_equal(_bits(result), _bits((xs[k], ys[k])))

    def test_tie_across_block_boundary_breaks_to_lower_abscissa(self):
        iv, points = _integer_grid(2 * _BLOCK)
        last, first = float(_BLOCK - 1), float(_BLOCK)   # block 0's last, block 1's first
        x, fx = brute_force_minimum(
            lambda x: np.where((x == last) | (x == first), -1.0, 1.0), iv, points)
        assert (x, fx) == (last, -1.0)
        x, _ = brute_force_minimum(
            lambda x: np.where(x == last, -1.0, np.where(x == first, -2.0, 1.0)), iv, points)
        assert x == first

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_first_nonfinite_point_in_a_later_block(self):
        iv, points = _integer_grid(4 * _BLOCK)
        nan_at, inf_at = float(2 * _BLOCK + 5), float(2 * _BLOCK + 9)
        seen = []

        def f(x):
            seen.append(x[-1])
            return np.where(x == nan_at, np.nan, np.where(x == inf_at, np.inf, x))

        with pytest.raises(NonFiniteValue) as info:
            brute_force_minimum(f, iv, points)
        assert info.value.x == nan_at
        assert str(info.value) == f"objective returned nan at grid point x={nan_at!r}"
        assert max(seen) < 3 * _BLOCK       # the fourth block is never evaluated

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("points, bad, scalar_only", _failing_scans())
    def test_scan_stops_at_the_first_nonfinite_point(self, points, bad, scalar_only):
        iv, points = _integer_grid(points)

        def f(x):
            if not isinstance(x, np.ndarray):
                return bad.get(x, (x - 3.0) ** 2)
            if scalar_only:
                raise TypeError("scalar only")
            y = (x - 3.0) ** 2      # block 0's finite minimum is x = 3
            for at, value in bad.items():
                y[x == at] = value
            return y

        rec = _Recorder(f)
        with pytest.raises(NonFiniteValue) as info:
            brute_force_minimum(rec, iv, points)
        at = min(bad)
        assert type(info.value.x) is float and info.value.x == at
        assert str(info.value) == f"objective returned {bad[at]!r} at grid point x={at!r}"
        assert len(rec.blocks) == int(at) // _BLOCK + 1     # no later block evaluated

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_message_prints_python_floats(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(NonFiniteValue) as info:
                brute_force_minimum(lambda x: 1 / (x - 0.5), Interval(0.0, 1.0), points=11)
        assert str(info.value) == "objective returned inf at grid point x=0.5"
        assert type(info.value.x) is float

    @pytest.mark.parametrize("f", [_ties, _scalar_only, _plateau, _narrow_dip,
                                   _right_plateau])
    def test_scalar_only_functions_with_a_one_point_last_block(self, f):
        points = _BLOCK + 1
        for iv in (Interval(0.0, 4.0), Interval(-1.0, 1.0), Interval(0.0, 1.0)):
            xs, ys = _whole_grid(f, iv, points)
            rec = _Recorder(f)
            k = int(np.argmin(ys))
            assert brute_force_minimum(rec, iv, points) == (xs[k], ys[k])
            assert [len(b) for b in rec.blocks] == [_BLOCK, 1]

    def test_t1_14_oracle_answer(self):
        # the default 10^6-point grid at verify's inset, as at the rewrite of
        # x**4 as (x * x) ** 2: same minimizer, same value, bit for bit
        case = find_case("t1_14")
        x, fx = brute_force_minimum(case.fn, _verify_bracket(case))
        assert (x.hex(), fx.hex()) == ("-0x1.5d5a18772865ep-1", "-0x1.94d76db8e899fp+0")

    def test_peak_memory_of_a_full_grid_scan(self):
        case = find_case("t1_04")
        tracemalloc.start()
        try:
            brute_force_minimum(case.fn, _verify_bracket(case))   # the default 10^6+1 points
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one block of temporaries, not the 8 MB float64 grid
        assert peak < 1e6
