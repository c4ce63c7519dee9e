"""Brute-force grid checks, independent of the bracketing solvers.

Used to cross-validate solver answers: a dense uniform grid scan finds the
grid minimizer directly, and a monotonicity scan certifies (at grid
resolution) whether a function is unimodal on an interval.

Both scan the grid in blocks of ``_BLOCK`` points, so the objective's
temporaries are one block's size, not a grid-sized array per ufunc, and a
scan stops at the first block holding a non-finite value.  Both scans hold
the float64 grid plus one block.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Interval, NonFiniteValue, _check_count


@dataclass(frozen=True)
class GridSpec:
    """Uniform sampling grid: ``points`` samples over the interval.

    ``inset`` trims that much off each endpoint before sampling (0 keeps the
    endpoints).  Callers dealing with functions that blow up at a boundary
    pass a small positive inset, e.g. interval length * 1e-9; the solvers
    never evaluate endpoints, so an inset oracle compares like for like.
    """

    points: int = 1_000_001
    inset: float = 0.0

    def __post_init__(self) -> None:
        _check_count(self.points, 3, "grid points")
        if not self.inset >= 0:
            raise ValueError(f"inset must be non-negative, got {self.inset!r}")


_BLOCK = 8192   # points per block: 64 KiB per float64 temporary, inside L2


def _blocks(f: Callable[[float], float], iv: Interval, grid: GridSpec):
    """Yield ``(xs, ys)`` over the grid, ``_BLOCK`` points at a time.

    Every ``xs`` is a view of one ``np.linspace`` array, so the grid floats
    do not depend on the block size.  ``ys`` is ``f`` on the block: one
    vectorised call, or one call per point when ``f`` refuses the array.
    Raises NonFiniteValue at the first non-finite sample, before any later
    block is evaluated.
    """
    lo, hi = iv.lo + grid.inset, iv.hi - grid.inset
    if not lo < hi:
        raise ValueError("inset leaves an empty interval")
    grid_xs = np.linspace(lo, hi, grid.points)
    for start in range(0, grid.points, _BLOCK):
        xs = grid_xs[start:start + _BLOCK]
        try:
            ys = np.asarray(f(xs), dtype=float)
            if ys.shape != xs.shape:
                raise TypeError("not vectorized")
        except (TypeError, ValueError):
            ys = np.fromiter((float(f(x)) for x in xs), dtype=float, count=len(xs))
        finite = np.isfinite(ys)
        if not finite.all():
            i = int(np.argmin(finite))
            x = float(xs[i])
            raise NonFiniteValue(
                f"objective returned {float(ys[i])!r} at grid point x={x!r}", x=x
            )
        yield xs, ys


def brute_force_minimum(
    f: Callable[[float], float], iv: Interval, grid: GridSpec = GridSpec()
) -> tuple[float, float]:
    """Grid minimizer of ``f`` on ``iv``: the sample with least value.

    Ties break to the lowest abscissa, so the result is independent of any
    evaluation order.  Resolution is (sampled length)/(points - 1).

    The grid is scanned in blocks, keeping a running minimum: memory is the
    float64 grid plus one block of temporaries.  A non-finite value raises
    NonFiniteValue from the first block that holds one.
    """
    best_x = best_y = math.inf
    for xs, ys in _blocks(f, iv, grid):
        k = int(np.argmin(ys))      # first occurrence == lowest abscissa
        if ys[k] < best_y:          # strict: an equal later block loses
            best_x, best_y = float(xs[k]), float(ys[k])
    return best_x, best_y


def is_unimodal(
    f: Callable[[float], float], iv: Interval, grid: GridSpec = GridSpec(points=10_001)
) -> bool:
    """Certify, at grid resolution, that ``f`` decreases then increases.

    True iff the sampled values are non-increasing up to the grid minimizer
    and non-decreasing after it; plateaus of exact float equality are
    tolerated.  A strict rise before the minimizer or a strict fall after it
    returns False.

    The grid is scanned in blocks, carrying only the previous sample and
    whether a strict rise has been seen: a strict fall after a rise is the
    same verdict as a rise before the first minimizer or a fall after it.
    Every block is still scanned, so a non-finite value raises
    NonFiniteValue whatever the verdict.
    """
    prev = None
    rose, unimodal = False, True
    for _, ys in _blocks(f, iv, grid):
        # every step, from the sample before this block; the samples are
        # finite, so a step's sign is the comparison of its two samples
        d = np.diff(ys, prepend=ys[0] if prev is None else prev)
        prev = ys[-1]
        if not rose:
            d = d[int(np.argmax(d > 0)):]   # from the first strict rise, if there is one
            rose = bool(d[0] > 0)
        if rose and (d < 0).any():
            unimodal = False
        del d    # hold no steps while f runs on the next block
    return unimodal
