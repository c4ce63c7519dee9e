"""Output checks for the benchmark workloads.

Every check compares an output with a value the benchmark computes itself
(a closed-form minimizer, a Fibonacci number, a grid resolution) or with a
property every correct run has.  None compares with a saved copy of earlier
output.  Each check returns a list of failure reasons; an empty list passes.
"""
from __future__ import annotations

import json
import math
import re

# floor cases: |x_hat - x*| <= max(epsilon, FLOOR_ULPS * ulp(x*))
FLOOR_ULPS = 2
# Shrink ratios and the Fibonacci bound hold to this many ulps of the larger
# endpoint magnitude: the resolution at which probes are placed.  Kiefer's
# bound is met with equality when x* is an endpoint, so without the slack
# rounding alone would decide.
ULP_SLACK = 2
SHRINK = {"halving": 2.0, "trichotomy": 3.0}

# the kinds of failure the known faults of the program produce (a reason's
# kind is its text up to the first colon)
PROBE_INSIDE = "probe not strictly inside the bracket"
ERROR_ABOVE = "error above tolerance"
BUDGET_RULE = "evaluations outside the budget rule"
# halving under StopRule(budget=N) at a left-endpoint minimizer: from this
# budget on, the inputs reach the float64 floor
HALVING_FLOOR_BUDGET = 60


def fibonacci(n: int) -> int:
    """F(n) with F(0) = F(1) = 1."""
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _trace_reasons(lo, hi, events, n_evals, x_min, final_lo, final_hi):
    """Properties of every run: each probe strictly inside the bracket
    before it, nested brackets, per-iteration counts that add up, and an
    estimate inside the final bracket.

    ``events`` yields (lo_after, hi_after, evals_this_iter, probe_xs).
    """
    reasons = []
    total = 0
    for ev_lo, ev_hi, ev_evals, xs in events:
        total += ev_evals
        if len(xs) != ev_evals:
            reasons.append("probe count differs from evals_this_iter")
        if not all(lo < x < hi for x in xs):
            reasons.append(PROBE_INSIDE)
        if not lo <= ev_lo < ev_hi <= hi:
            reasons.append("brackets not nested")
        lo, hi = ev_lo, ev_hi
    if total != n_evals:
        reasons.append("per-iteration evals do not sum to n_evals")
    if (lo, hi) != (final_lo, final_hi):
        reasons.append("final interval differs from the last trace event")
    if not final_lo <= x_min <= final_hi:
        reasons.append("estimate outside the final bracket")
    return sorted(set(reasons))


def budget_reasons(method: str, budget: int, n_evals: int) -> list[str]:
    """Evaluations spent under ``StopRule(budget=N)``."""
    allowed = {
        "fibonacci": (budget, budget),
        "halving": (budget, budget + 1),
        "trichotomy": (budget, budget + 2),
        "golden": (0, budget),
        "dichotomous": (0, budget),
    }[method]
    if not allowed[0] <= n_evals <= allowed[1]:
        return [f"{BUDGET_RULE}: {n_evals} not in {allowed[0]}..{allowed[1]} for N = {budget}"]
    return []


def check_solve(inp, res, calls: int) -> list[str]:
    """Check one ``minimize`` result against its input's closed form.

    ``calls`` is the number of times the raw function was called, counted
    by the benchmark.
    """
    prob = inp.problem
    events = (
        (ev.interval_after.lo, ev.interval_after.hi, ev.evals_this_iter,
         [x for x, _ in ev.probes])
        for ev in res.trace
    )
    reasons = _trace_reasons(prob.lo, prob.hi, events, res.n_evals, res.x_min,
                             res.final_interval.lo, res.final_interval.hi)
    if calls != res.n_evals:
        reasons.append(f"n_evals differs from calls counted: {res.n_evals} != {calls}")
    err = abs(res.x_min - prob.x_star)
    if inp.budget is None:
        tol = inp.epsilon
        if prob.floor:
            tol = max(tol, FLOOR_ULPS * math.ulp(prob.x_star))
        if not err <= tol:
            reasons.append(f"{ERROR_ABOVE}: {err:.3g} > {tol:.3g}")
    else:
        reasons += budget_reasons(inp.method, inp.budget, res.n_evals)
        if inp.method == "fibonacci":
            bound = (prob.hi - prob.lo) / fibonacci(inp.budget + 1)
            slack = ULP_SLACK * math.ulp(max(abs(prob.lo), abs(prob.hi)))
            if not err <= bound + slack:
                reasons.append(f"error above L/F(N+1): {err:.3g} > {bound:.3g}")
    return reasons


def kind(reason: str) -> str:
    return reason.split(":")[0]


def known_fault_kinds(inp) -> set[str]:
    """The kinds of failure ``solve`` input ``inp`` may show through a known
    fault of the program (README, "Known faults"); any other kind is a new
    failure.

    - Every method evaluates a bracket endpoint at the float64 floor.
    - Dichotomous returns a wrong answer there, with no error.
    - Halving stops short of its budget there, on an endpoint.
    """
    prob = inp.problem
    if prob.floor:
        return {PROBE_INSIDE, ERROR_ABOVE} if inp.method == "dichotomous" else {PROBE_INSIDE}
    if (inp.method == "halving" and prob.family == "endpoint" and prob.x_star == prob.lo
            and inp.budget is not None and inp.budget >= HALVING_FLOOR_BUDGET):
        return {PROBE_INSIDE, BUDGET_RULE}
    return set()


def _flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def check_run_json(argv: list[str], lo: float, hi: float, rc: int, out: str) -> list[str]:
    """Check the stdout of ``run <method> <case> ... --trace --format json``."""
    if rc != 0:
        return [f"nonzero exit code: {rc}"]
    try:
        p = json.loads(out)
    except ValueError:
        return ["stdout is not JSON"]
    method = argv[1]
    events = ((ev["lo"], ev["hi"], ev["evals"], [x for x, _ in ev["probes"]])
              for ev in p["trace"])
    reasons = _trace_reasons(lo, hi, events, p["n_evals"], p["x_min"],
                             p["final_lo"], p["final_hi"])
    if p["n_iters"] != len(p["trace"]):
        reasons.append("n_iters differs from the trace length")
    beta = SHRINK.get(method)
    if beta is not None:
        plo, phi = lo, hi
        for ev in p["trace"]:
            cur, prev = ev["hi"] - ev["lo"], phi - plo
            if abs(cur - prev / beta) > ULP_SLACK * math.ulp(max(abs(plo), abs(phi))):
                reasons.append(f"bracket does not shrink by the exact ratio: 1/{beta:g}")
                break
            plo, phi = ev["lo"], ev["hi"]
    budget = _flag(argv, "--budget")
    if budget is not None:
        reasons += budget_reasons(method, int(budget), p["n_evals"])
    return reasons


def check_table(rc: int, out: str, rows: int) -> list[str]:
    """``table N --format csv`` meets every published reference (exit 0)."""
    reasons = []
    if rc != 0:
        reasons.append(f"nonzero exit code: {rc}")
    lines = out.splitlines()
    if len(lines) != rows + 1:
        reasons.append(f"wrong row count: {len(lines) - 1} != {rows}")
    return reasons


_VERIFY_LINE = re.compile(
    r"^(\S+) (\S+): x=(\S+) oracle=(\S+) diff=(\S+) (ok|FAIL)$"
)


def check_verify(rc: int, out: str, cases, grid_points: int) -> list[str]:
    """Every row passes, and every oracle minimizer lies within one grid
    step of the case's closed-form x*.

    ``cases`` maps case id to (lo, hi, x_star) for the non-garbled cases.
    """
    reasons = []
    if rc != 0:
        reasons.append(f"nonzero exit code: {rc}")
    seen = {}
    for line in out.splitlines():
        m = _VERIFY_LINE.match(line)
        if m is None:
            reasons.append(f"unparsed verify line: {line!r}")
            continue
        case, method, _, oracle, _, mark = m.groups()
        if mark != "ok":
            reasons.append(f"verify row failed: {case} {method}")
        seen.setdefault(case, set()).add(method)
        lo, hi, x_star = cases[case]
        step = (hi - lo) / (grid_points - 1)
        if not abs(float(oracle) - x_star) <= step:
            reasons.append(f"oracle more than one grid step from x*: {case} {oracle}")
    if set(seen) != set(cases):
        reasons.append("verify rows do not cover every non-garbled case")
    if any(len(ms) != 5 for ms in seen.values()):
        reasons.append("verify rows do not cover every method")
    return sorted(set(reasons))
