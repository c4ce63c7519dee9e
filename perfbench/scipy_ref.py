"""Outside reference: scipy's minimize_scalar on the 23 registry cases.

    python3 perfbench/scipy_ref.py

Runs ``method="golden"`` (xtol relative) and ``"bounded"`` (Brent 1973,
xatol absolute) on each non-garbled case, at the case's table-1
tolerance, or 1e-6 for the fixed-budget table-2 cases, and prints
evaluations, error |x - x*| and microseconds per run (minimum of repeats)
next to unisearch's golden section at the same tolerance.  scipy's golden
takes the case's interval as a starting bracket, not as bounds, so it may
search outside it.  Exits 0 without figures when scipy is not installed.
"""
from __future__ import annotations

import statistics
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src")]

REPEATS = 200
DEFAULT_TOL = 1e-6


def best_us(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return min(times) / 1e3


def main() -> int:
    try:
        from scipy.optimize import minimize_scalar
    except ImportError:
        print("scipy is not installed; no reference figures")
        return 0
    import numpy as np
    import scipy
    from unisearch import Objective, StopRule, bench, minimize

    print(f"scipy {scipy.__version__}; evaluations / |x - x*| / us per run "
          f"(minimum of {REPEATS})")
    print(f"{'case':6s} {'tol':>7s}  {'scipy golden':>28s}  {'scipy bounded':>28s}"
          f"  {'unisearch golden':>28s}")
    rows = []
    # functions evaluated outside their interval overflow; the rows say so
    warnings.simplefilter("ignore", RuntimeWarning)
    np.seterr(all="ignore")
    for case in bench.all_cases():
        if bench.FLAG_GARBLED in case.flags:
            continue
        lo, hi, tol = case.interval.lo, case.interval.hi, case.tol or DEFAULT_TOL
        # golden's xtol is relative to |x|; scale it so the bracket half-width
        # target matches the absolute tolerance near the minimizer
        xtol = tol / max(abs(case.x_star), 1.0)
        runs = {
            "scipy golden": lambda: minimize_scalar(
                case.fn, bracket=(lo, hi), method="golden", options={"xtol": xtol}),
            "scipy bounded": lambda: minimize_scalar(
                case.fn, bounds=(lo, hi), method="bounded", options={"xatol": tol}),
            "unisearch golden": lambda: minimize(
                "golden", Objective(case.fn), case.interval, StopRule(epsilon=tol)),
        }
        cells = []
        for name, run in runs.items():
            res = run()
            x = res.x_min if name.startswith("unisearch") else float(res.x)
            n = res.n_evals if name.startswith("unisearch") else res.nfev
            us = best_us(run)
            cells.append(f"{n:4d} {abs(x - case.x_star):9.2e} {us:9.1f}")
            rows.append((name, n, us))
        print(f"{case.id:6s} {tol:7.0e}  " + "  ".join(f"{c:>28s}" for c in cells))
    for name in ("scipy golden", "scipy bounded", "unisearch golden"):
        ns = [n for m, n, _ in rows if m == name]
        us = [u for m, _, u in rows if m == name]
        print(f"{name:17s} median {statistics.median(ns):5.1f} evaluations, "
              f"{statistics.median(us):7.1f} us per run over {len(ns)} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
