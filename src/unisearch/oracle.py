"""Brute-force grid minimum, independent of the bracketing solvers.

Used to cross-validate solver answers: one dense uniform grid scan finds the
grid minimizer directly.  It takes the bracket to sample, endpoints
included, and a point count.  A function that blows up at an endpoint is
scanned on an inset bracket, ``Interval(lo + d, hi - d)`` for a small ``d``
such as length * 1e-9; the solvers never evaluate endpoints, so an inset
oracle compares like for like.

The scan goes through the grid in blocks of ``_BLOCK`` points, building each
block's points as it goes, so it never holds a grid-sized array: the
objective's temporaries are one block's size, and the scan stops at the
first block holding a non-finite value.  Each block is checked with one
``argmin`` and one ``max``: the argmin's value is NaN or -inf when the block
holds one, and the max is +inf when it holds +inf.  Only a failing block pays
for an ``isfinite`` scan, which names its first non-finite point.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .core import Interval, NonFiniteValue, _check_count


# points per block: 64 KiB per float64 temporary.  Larger blocks page-fault:
# on verify's 22 scans, 12,288-16,384 points took ~1,100-2,600 minor faults a
# pass and 20,480 points ~28,000 and a slower scan, as the allocator hands the
# objective's temporaries back to the system and faults them in again; 8,192
# took none.
_BLOCK = 8192
_OFFSETS = np.arange(_BLOCK, dtype=float)   # 0.0, 1.0, ..., _BLOCK - 1
_OFFSETS.flags.writeable = False


def brute_force_minimum(
    f: Callable[[float], float], iv: Interval, points: int = 1_000_001
) -> tuple[float, float]:
    """Grid minimizer of ``f`` on ``iv``: the sample with least value.

    Ties break to the lowest abscissa, so the result is independent of any
    evaluation order.  Resolution is ``iv.length() / (points - 1)``.

    The grid is scanned ``_BLOCK`` points at a time, keeping a running
    minimum: memory is one block of temporaries.  Each block is built alone
    with ``np.linspace``'s arithmetic: the indices as floats (exact below
    2**53) times the step, plus ``iv.lo``, with the last point set to
    ``iv.hi``; when the step underflows to 0 (a bracket a few subnormals
    wide), the indices over ``points - 1``, times the width.  So the points
    are those of ``np.linspace(iv.lo, iv.hi, points)`` bit for bit, whatever
    the block size.  ``f`` runs once per block, or once per point when it
    refuses the array.  Each block's first least value comes from one
    ``argmin``, which returns the first NaN when there is one, and one
    ``max`` catches a +inf behind a finite minimum; a block that fails
    either check is scanned with ``np.isfinite`` for its first non-finite
    point, which raises NonFiniteValue before any later block is evaluated.
    """
    points = _check_count(points, 3, "grid points")
    div = points - 1
    delta = iv.hi - iv.lo
    step = delta / div
    best_x = best_y = math.inf
    for start in range(0, points, _BLOCK):
        xs = _OFFSETS[:points - start] + start
        if step == 0.0:
            xs /= div
            xs *= delta
        else:
            xs *= step
        xs += iv.lo
        if start + _BLOCK >= points:
            xs[-1] = iv.hi
        try:
            ys = np.asarray(f(xs), dtype=float)
            if ys.shape != xs.shape:
                raise TypeError("not vectorized")
        except (TypeError, ValueError):
            ys = np.fromiter((float(f(x)) for x in xs), dtype=float, count=len(xs))
        k = int(ys.argmin())        # the first NaN, else the first least value
        y = float(ys[k])            # NaN or -inf when the block holds one
        if not math.isfinite(y) or ys.max() == math.inf:
            i = int(np.isfinite(ys).argmin())   # the first non-finite point
            x = float(xs[i])
            raise NonFiniteValue(
                f"objective returned {float(ys[i])!r} at grid point x={x!r}", x=x
            )
        if y < best_y:              # strict: an equal later block loses
            best_x, best_y = float(xs[k]), y
    return best_x, best_y
