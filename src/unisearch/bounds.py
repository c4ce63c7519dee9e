"""Worst-case bounds for the midpoint-pinned bracketing methods.

Interval halving shrinks the bracket by 1/2 per iteration at <= 2
evaluations after the first; trichotomy shrinks it by 1/3, and the paper's
formula charges it 4 evaluations an iteration.  From those ratios follow a
minimum iteration count to reach a target half-width (:func:`iteration_bound`,
an :class:`IterationBound` of the classical and the exact count) and a
guaranteed accuracy after a fixed number of evaluations (:func:`accuracy_bound`,
a plain float, with the paper's charges).  Both check their numbers as
:class:`~unisearch.core.StopRule` does and compute with the Python float or
int each equals, so a NumPy length or count gives the bound of the same
Python value; a number outside a formula's domain raises ``ValueError``.

Trichotomy itself spends at most 4 evaluations in its first iteration and
at most 3 in each later one, so after N evaluations it attains the tighter
L/(2*3^ceil((N-1)/3)), which the tests hold it to beside ``accuracy_bound``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import _check_count, _check_positive
from .solvers import Method


# each method's shrink base per iteration and the evaluations the paper
# charges an iteration
_SHRINK = {Method.HALVING: (2, 2), Method.TRICHOTOMY: (3, 4)}


def _shrink(method: Method | str) -> tuple[int, int]:
    method = Method(method)
    if method not in _SHRINK:
        raise ValueError(f"bounds are defined for halving and trichotomy, not {method}")
    return _SHRINK[method]


@dataclass(frozen=True)
class IterationBound:
    """Iterations needed to reach half-width epsilon from a length-L bracket.

    ``k_formula`` is the classical integer-part formula
    floor(log_base(L/(2*eps))) + 1; ``k_exact`` is ceil(log_base(L/(2*eps))),
    the exact requirement.  They agree except when L/(2*eps) is an exact
    power of the base, where the formula overcounts by one.  Both are exact
    at every float64 ratio: no rounding of the log moves them.
    """

    k_formula: int
    k_exact: int


def iteration_bound(method: Method | str, length: float, epsilon: float) -> IterationBound:
    """Minimum iterations for the bracket half-width to reach ``epsilon``.

    Requires 1 < length/(2*epsilon) < inf; smaller ratios are outside the
    formula's domain, and a ratio that overflows float64 cannot be computed:
    both raise ``ValueError``.
    """
    base, _ = _shrink(method)
    length, epsilon = _check_positive(length, "length"), _check_positive(epsilon, "epsilon")
    ratio = length / (2 * epsilon)
    if ratio <= 1:
        raise ValueError(f"length/(2*epsilon) must exceed 1, got {ratio!r}: "
                         "the start bracket already satisfies the target")
    if ratio == math.inf:
        raise ValueError(f"length/(2*epsilon) overflows float64 for length={length!r}, epsilon={epsilon!r}")
    k = math.ceil(math.log(ratio) / math.log(base))
    # the float log can land just off an integer; an int power compares
    # exactly with the ratio, so move k to the least one with base**k >= ratio
    k += (base**k < ratio) - (base**(k - 1) >= ratio)
    return IterationBound(k_formula=k + (base**k == ratio), k_exact=k)


def accuracy_bound(method: Method | str, length: float, n_evals: int) -> float:
    """Guaranteed |x_hat - x*|, the worst-case half-width, after ``n_evals`` evaluations.

    halving:    length / (2 * 2^((n-1)/2))
    trichotomy: length / (2 * 3^((n-1)/4))

    Exponents are real-valued (no flooring).  For any n > 1 the halving bound
    is strictly smaller; the two coincide at n = 1.  A bound below the
    smallest float64, which would round to 0.0 and so claim an exact answer,
    raises ``ValueError``; so does a denominator that overflows.
    """
    base, charge = _shrink(method)
    length, n_evals = _check_positive(length, "length"), _check_count(n_evals, 1, "n_evals")
    exponent = (n_evals - 1) / charge
    try:
        bound = length / (2 * base**exponent)
    except OverflowError:   # base**exponent beyond float64
        bound = 0.0
    if not bound > 0.0:
        raise ValueError(f"the bound length/(2*{base:g}**{exponent!r}) underflows float64 "
                         f"to 0 for length={length!r}, n_evals={n_evals}")
    return bound
