"""Brute-force grid checks, independent of the bracketing solvers.

Used to cross-validate solver answers: a dense uniform grid scan finds the
grid minimizer directly, and a monotonicity scan certifies (at grid
resolution) whether a function is unimodal on an interval.
"""
from __future__ import annotations

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


def _sample(f: Callable[[float], float], iv: Interval, grid: GridSpec):
    lo, hi = iv.lo + grid.inset, iv.hi - grid.inset
    if not lo < hi:
        raise ValueError("inset leaves an empty interval")
    xs = np.linspace(lo, hi, grid.points)
    try:
        ys = np.asarray(f(xs), dtype=float)
        if ys.shape != xs.shape:
            raise TypeError("not vectorized")
    except (TypeError, ValueError):
        ys = np.fromiter((float(f(x)) for x in xs), dtype=float, count=len(xs))
    bad = ~np.isfinite(ys)
    if bad.any():
        i = int(np.argmax(bad))
        raise NonFiniteValue(
            f"objective returned {ys[i]!r} at grid point x={xs[i]!r}", x=float(xs[i])
        )
    return xs, ys


def brute_force_minimum(
    f: Callable[[float], float], iv: Interval, grid: GridSpec = GridSpec()
) -> tuple[float, float]:
    """Grid minimizer of ``f`` on ``iv``: the sample with least value.

    Ties break to the lowest abscissa, so the result is independent of any
    evaluation order.  Resolution is (sampled length)/(points - 1).
    """
    xs, ys = _sample(f, iv, grid)
    k = int(np.argmin(ys))          # first occurrence == lowest abscissa
    return float(xs[k]), float(ys[k])


def is_unimodal(
    f: Callable[[float], float], iv: Interval, grid: GridSpec = GridSpec(points=10_001)
) -> bool:
    """Certify, at grid resolution, that ``f`` decreases then increases.

    True iff the sampled values are non-increasing up to the grid minimizer
    and non-decreasing after it; plateaus of exact float equality are
    tolerated.  A strict rise before the minimizer or a strict fall after it
    returns False.
    """
    xs, ys = _sample(f, iv, grid)
    k = int(np.argmin(ys))
    d = np.diff(ys)
    return bool(np.all(d[:k] <= 0) and np.all(d[k:] >= 0))
