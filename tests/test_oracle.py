"""Grid oracle: brute-force minima and unimodality certification."""
import math
import tracemalloc

import numpy as np
import pytest

from unisearch.bench import VERIFY_INSET, all_cases, find_case
from unisearch.core import Interval, NonFiniteValue
from unisearch.oracle import _BLOCK, GridSpec, _blocks, brute_force_minimum, is_unimodal


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


class TestGridSpec:
    def test_defaults(self):
        g = GridSpec()
        assert g.points == 1_000_001
        assert g.inset == 0.0

    def test_validation(self):
        for bad in (2, 1, 0, -5, 3.0, True):
            with pytest.raises(ValueError):
                GridSpec(points=bad)
        with pytest.raises(ValueError):
            GridSpec(inset=-1e-9)


class TestBruteForceMinimum:
    def test_square_hits_zero_exactly(self):
        # 10001 points on [-1, 1] sample x = 0 exactly
        x, fx = brute_force_minimum(lambda x: x * x, Interval(-1.0, 1.0),
                                    GridSpec(points=10_001))
        assert x == 0.0
        assert fx == 0.0

    def test_resolution_scales_with_points(self):
        iv = Interval(0.0, 1.0)
        for points in (101, 10_001):
            x, _ = brute_force_minimum(lambda x: (x - 0.4637) ** 2, iv,
                                       GridSpec(points=points))
            assert abs(x - 0.4637) <= 1.0 / (points - 1)

    def test_tie_breaks_to_lowest_abscissa(self):
        # integer grid 0..4; equal minima at x = 1 and x = 3
        x, fx = brute_force_minimum(_ties, Interval(0.0, 4.0), GridSpec(points=5))
        assert x == 1.0
        assert fx == 0.0

    def test_scalar_only_functions_work(self):
        x, _ = brute_force_minimum(_scalar_only, Interval(0.0, 1.0), GridSpec(points=101))
        assert x == 0.25

    def test_nonfinite_sample_raises(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(NonFiniteValue) as info:
                brute_force_minimum(lambda x: 1 / x, Interval(-1.0, 1.0),
                                    GridSpec(points=3))
        assert info.value.x == 0.0

    def test_inset_trims_endpoints(self):
        # [0, 1] with inset 0.25 and 3 points samples 0.25, 0.5, 0.75
        x, fx = brute_force_minimum(lambda x: x, Interval(0.0, 1.0),
                                    GridSpec(points=3, inset=0.25))
        assert x == 0.25
        assert fx == 0.25

    def test_inset_consuming_interval_rejected(self):
        for inset in (0.5, 0.6):
            with pytest.raises(ValueError):
                brute_force_minimum(lambda x: x, Interval(0.0, 1.0),
                                    GridSpec(points=3, inset=inset))

    def test_endpoint_minimum_found_without_inset(self):
        x, _ = brute_force_minimum(lambda x: np.exp(-x) + 1 / (1 - x),
                                   Interval(-3.0, 0.0), GridSpec(points=10_001))
        assert x == 0.0


class TestIsUnimodal:
    def test_quadratic(self):
        assert is_unimodal(lambda x: x * x, Interval(-1.0, 1.0))

    def test_monotone_counts_as_unimodal(self):
        assert is_unimodal(lambda x: x, Interval(0.0, 1.0))
        assert is_unimodal(lambda x: -x, Interval(0.0, 1.0))

    def test_oscillation_detected(self):
        assert not is_unimodal(lambda x: np.sin(10 * x), Interval(0.0, 3.0))

    def test_plateau_tolerated(self):
        assert is_unimodal(_plateau, Interval(-1.0, 1.0), GridSpec(points=101))

    def test_secondary_dip_detected(self):
        # -(0.2x + sin 2x) on [0, 3] has a local max near 2.31 and falls
        # again toward the right edge: decisively not unimodal
        assert not is_unimodal(lambda x: -(0.2 * x + np.sin(2 * x)),
                               Interval(0.0, 3.0))

    def test_respects_grid_resolution(self):
        # a dip narrower than the grid spacing is invisible at 11 points
        iv = Interval(0.0, 1.0)
        assert is_unimodal(_narrow_dip, iv, GridSpec(points=11))
        assert not is_unimodal(_narrow_dip, iv, GridSpec(points=10_001))

    def test_nonfinite_raises(self):
        with pytest.raises(NonFiniteValue):
            is_unimodal(lambda x: math.nan, Interval(0.0, 1.0),
                        GridSpec(points=11))


def _whole_grid(f, iv, grid):
    """The reference scan: ``f`` on the whole grid in one call (pointwise when
    ``f`` refuses the array), as the oracle did before it scanned in blocks."""
    xs = np.linspace(iv.lo + grid.inset, iv.hi - grid.inset, grid.points)
    try:
        ys = np.asarray(f(xs), dtype=float)
        if ys.shape != xs.shape:
            raise TypeError("not vectorized")
    except (TypeError, ValueError):
        ys = np.fromiter((float(f(x)) for x in xs), dtype=float, count=len(xs))
    return xs, ys


def _reference_unimodal(f, iv, grid):
    """The whole-grid verdict: no strict rise before the first minimizer and
    no strict fall after it."""
    _, ys = _whole_grid(f, iv, grid)
    k = int(np.argmin(ys))
    d = np.diff(ys)
    return bool(np.all(d[:k] <= 0) and np.all(d[k:] >= 0))


def _bits(values):
    """Floats as their int64 bit patterns, so -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).view(np.int64)


def _integer_grid(n):
    """Interval and grid whose points are exactly 0.0, 1.0, ..., n - 1."""
    return Interval(0.0, float(n - 1)), GridSpec(points=n)


GRID_SIZES = (3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 10_001, 1_000_001)


class TestBlockedScan:
    @pytest.mark.parametrize("points", GRID_SIZES)
    @pytest.mark.parametrize("case", all_cases(), ids=lambda c: c.id)
    def test_matches_whole_grid_bit_for_bit(self, case, points):
        # inset 0 samples the poles of several cases; the garbled t1_20 has
        # poles inside its bracket
        iv = case.interval
        for grid in (GridSpec(points=points),
                     GridSpec(points=points, inset=iv.length() * VERIFY_INSET)):
            with np.errstate(all="ignore"):
                xs, ys = _whole_grid(case.fn, iv, grid)
                bad = ~np.isfinite(ys)
                if bad.any():
                    with pytest.raises(NonFiniteValue) as info:
                        brute_force_minimum(case.fn, iv, grid)
                    assert _bits(info.value.x) == _bits(xs[np.argmax(bad)])
                    continue
                blocks = list(_blocks(case.fn, iv, grid))
                result = brute_force_minimum(case.fn, iv, grid)
            assert all(len(b) == _BLOCK for b, _ in blocks[:-1])
            assert np.array_equal(_bits(np.concatenate([b for b, _ in blocks])), _bits(xs))
            assert np.array_equal(_bits(np.concatenate([y for _, y in blocks])), _bits(ys))
            k = int(np.argmin(ys))
            assert np.array_equal(_bits(result), _bits((xs[k], ys[k])))

    def test_tie_across_block_boundary_breaks_to_lower_abscissa(self):
        iv, grid = _integer_grid(2 * _BLOCK)
        last, first = float(_BLOCK - 1), float(_BLOCK)   # block 0's last, block 1's first
        x, fx = brute_force_minimum(
            lambda x: np.where((x == last) | (x == first), -1.0, 1.0), iv, grid)
        assert (x, fx) == (last, -1.0)
        x, _ = brute_force_minimum(
            lambda x: np.where(x == last, -1.0, np.where(x == first, -2.0, 1.0)), iv, grid)
        assert x == first

    def test_first_nonfinite_point_in_a_later_block(self):
        iv, grid = _integer_grid(4 * _BLOCK)
        nan_at, inf_at = float(2 * _BLOCK + 5), float(2 * _BLOCK + 9)
        seen = []

        def f(x):
            seen.append(x[-1])
            return np.where(x == nan_at, np.nan, np.where(x == inf_at, np.inf, x))

        with pytest.raises(NonFiniteValue) as info:
            brute_force_minimum(f, iv, grid)
        assert info.value.x == nan_at
        assert str(info.value) == f"objective returned nan at grid point x={nan_at!r}"
        assert max(seen) < 3 * _BLOCK       # the fourth block is never evaluated

    def test_nonfinite_message_prints_python_floats(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(NonFiniteValue) as info:
                brute_force_minimum(lambda x: 1 / (x - 0.5), Interval(0.0, 1.0),
                                    GridSpec(points=11))
        assert str(info.value) == "objective returned inf at grid point x=0.5"
        assert type(info.value.x) is float

    @pytest.mark.parametrize("f", [_ties, _scalar_only, _plateau, _narrow_dip,
                                   _right_plateau])
    def test_scalar_only_functions_with_a_one_point_last_block(self, f):
        grid = GridSpec(points=_BLOCK + 1)
        for iv in (Interval(0.0, 4.0), Interval(-1.0, 1.0), Interval(0.0, 1.0)):
            xs, ys = _whole_grid(f, iv, grid)
            assert [len(b) for b, _ in _blocks(f, iv, grid)] == [_BLOCK, 1]
            k = int(np.argmin(ys))
            assert brute_force_minimum(f, iv, grid) == (xs[k], ys[k])
            assert is_unimodal(f, iv, grid) == _reference_unimodal(f, iv, grid)

    def test_is_unimodal_across_blocks(self):
        n = 3 * _BLOCK + 5
        iv, grid = _integer_grid(n)
        c = float(2 * _BLOCK + 7)
        edge = float(_BLOCK)        # the first point of the second block
        dip = float(3 * _BLOCK)     # the first point of the last block

        cases = [
            ((lambda x: (x - c) ** 2), True),
            # one strict rise before the minimizer, across the first block boundary
            ((lambda x: (x - c) ** 2 + np.where(x == edge, 4.0 * c, 0.0)), False),
            # a rise at the last point of a block, a fall at the first of the next
            ((lambda x: (x - c) ** 2 + np.where(x == edge - 1, 4.0 * c, 0.0)), False),
            # one strict fall after the minimizer, across the last block boundary
            ((lambda x: (x - c) ** 2 - np.where(x == dip, 4.0 * n, 0.0) + 4.0 * n), False),
            # the minimizer either side of a block boundary
            ((lambda x: (x - (edge - 1)) ** 2), True),
            ((lambda x: (x - edge) ** 2), True),
            # a plateau across a block boundary: before the minimizer, at it,
            # and after it with a fall later
            ((lambda x: np.where(abs(x - edge) <= 3, (edge - 3 - c) ** 2, (x - c) ** 2)),
             True),
            ((lambda x: np.maximum(abs(x - edge) - 3, 0.0)), True),
            ((lambda x: np.where(x < dip, np.minimum(abs(x - 5.0), abs(edge - 5.0)),
                                 0.0)), False),
            ((lambda x: np.sin(x / 1000.0)), False),
        ]
        for f, verdict in cases:
            assert is_unimodal(f, iv, grid) == _reference_unimodal(f, iv, grid) == verdict

    def test_t1_14_oracle_answer(self):
        # the default 10^6-point grid at verify's inset, as at the rewrite of
        # x**4 as (x * x) ** 2: same minimizer, same value, bit for bit
        case = find_case("t1_14")
        grid = GridSpec(inset=case.interval.length() * VERIFY_INSET)
        x, fx = brute_force_minimum(case.fn, case.interval, grid)
        assert (x.hex(), fx.hex()) == ("-0x1.5d5a18772865ep-1", "-0x1.94d76db8e899fp+0")

    def test_peak_memory_of_a_full_grid_scan(self):
        case = next(c for c in all_cases() if c.id == "t1_04")
        grid = GridSpec(inset=case.interval.length() * VERIFY_INSET)
        assert grid.points == 1_000_001
        tracemalloc.start()
        try:
            brute_force_minimum(case.fn, case.interval, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the float64 grid is 8 MB; one block of temporaries is far less
        assert peak < 12e6

    def test_peak_memory_of_a_full_unimodality_scan(self):
        case = next(c for c in all_cases() if c.id == "t1_04")
        grid = GridSpec(inset=case.interval.length() * VERIFY_INSET)
        peaks = []
        for scan in (brute_force_minimum, is_unimodal):
            tracemalloc.start()
            try:
                scan(case.fn, case.interval, grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the grid plus one block, as the minimum scan: not every sample
        assert peaks[1] < 12e6
        assert peaks[1] < peaks[0] + _BLOCK * 8
