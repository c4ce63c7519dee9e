"""Acceptance gate: the nine published-behavior criteria, one test each.

Every test recomputes its condition from raw run data rather than trusting
the harness's own pass flags, and prints a one-line summary so a -s run
reads as a checklist.
"""
import math
import random
import time

import pytest

from unisearch.bench import (
    FLAG_ENDPOINT_MIN,
    FLAG_GARBLED,
    VERIFY_AGREEMENT,
    emit_report,
    registry_table1,
    registry_table2,
    run_table1,
    run_table2,
    run_verify,
)
from unisearch.bounds import accuracy_bound, iteration_bound
from unisearch.cli import main as cli_main
from unisearch.core import Interval, Objective, StopRule
from unisearch.solvers import Method, minimize

_SEED = 20240817
_N_RANDOM_RUNS = 1000


def _random_case(rng):
    lo = rng.uniform(-100.0, 100.0)
    length = rng.uniform(0.05, 200.0)
    c = lo + rng.uniform(0.02, 0.98) * length
    s = 10.0 ** rng.uniform(-2.0, 2.0)
    d = rng.uniform(-5.0, 5.0)
    eps = length * 10.0 ** rng.uniform(-8.0, -2.0)
    return Interval(lo, lo + length), (lambda x: s * (x - c) ** 2 + d), eps


@pytest.fixture(scope="module")
def random_runs():
    """The shared >= 1000 randomized runs used by criteria 3 and 4."""
    rng = random.Random(_SEED)
    runs = []
    for _ in range(_N_RANDOM_RUNS):
        iv, f, eps = _random_case(rng)
        h = minimize(Method.HALVING, Objective(f), iv, StopRule(epsilon=eps))
        t = minimize(Method.TRICHOTOMY, Objective(f), iv, StopRule(epsilon=eps))
        runs.append((iv, h, t))
    return runs


def test_criterion_1_table1_counts():
    t0 = time.perf_counter()
    rows = run_table1()
    elapsed = time.perf_counter() - t0
    gated = [r for r in rows if r.passed is not None]
    assert len(gated) == 19 * 3
    for r in gated:
        assert abs(r.measured - r.expected) <= 2, (r.case, r.method, r.measured)
    exact = sum(1 for r in gated if r.deviation == 0)
    assert elapsed < 1.0
    print(f"criterion 1 pass: 57/57 counts within +-2 ({exact} exact), "
          f"{elapsed:.2f} s")


def test_criterion_2_table2_errors():
    t0 = time.perf_counter()
    rows = run_table2()
    elapsed = time.perf_counter() - t0
    assert len(rows) == 27
    for r in rows:
        assert r.measured <= 2.0 * r.expected, (r.case, r.method, r.n)
        if r.method in (Method.HALVING, Method.TRICHOTOMY):
            case = next(c for c in registry_table2() if c.id == r.case)
            bound = accuracy_bound(r.method, case.interval.length(), r.n)
            assert r.measured <= bound, (r.case, r.method, r.n)
    assert elapsed < 1.0
    print(f"criterion 2 pass: 27/27 errors within 2x reference and "
          f"guaranteed bounds, {elapsed:.2f} s")


def test_criterion_3_shrink_ratios(random_runs):
    checked = 0
    for iv, h, t in random_runs:
        for res, beta in ((h, 2.0), (t, 3.0)):
            prev, prev_iv = iv.length(), iv
            for ev in res.trace:
                cur = ev.interval_after.length()
                scale = max(abs(prev_iv.lo), abs(prev_iv.hi))
                assert abs(cur - prev / beta) <= 2 * math.ulp(scale)
                prev, prev_iv = cur, ev.interval_after
                checked += 1
    print(f"criterion 3 pass: {checked} iterations at exact 1/2 and 1/3 "
          f"(2-ulp endpoint resolution) over {len(random_runs)} runs")


def test_criterion_4_evaluation_caps(random_runs):
    for _, h, t in random_runs:
        for res, first_cap, later_cap in ((h, 3, 2), (t, 4, 3)):
            assert res.trace[0].evals_this_iter <= first_cap
            for ev in res.trace[1:]:
                assert ev.evals_this_iter <= later_cap
            # a fortiori the coarser <= 5 / <= 4 claim
            assert all(ev.evals_this_iter <= 5 for ev in res.trace)
    print(f"criterion 4 pass: caps 3/2 (halving) and 4/3 (trichotomy) over "
          f"{len(random_runs)} runs")


def test_criterion_5_iteration_count_formula():
    rng = random.Random(_SEED + 1)
    pairs = []
    while len(pairs) < 100:
        length = 10.0 ** rng.uniform(-1.0, 3.0)
        ratio = 10.0 ** rng.uniform(0.3, 3.5)
        eps = length / (2.0 * ratio)
        logs = [math.log(length / (2 * eps)) / math.log(b) for b in (2.0, 3.0)]
        if all(abs(lg - round(lg)) > 1e-3 for lg in logs):
            pairs.append((length, eps))
    for length, eps in pairs:
        iv = Interval(0.0, length)
        f = lambda x: (x - 0.37 * length) ** 2
        for method, beta in ((Method.HALVING, 2.0), (Method.TRICHOTOMY, 3.0)):
            expected = math.ceil(math.log(length / (2 * eps)) / math.log(beta))
            res = minimize(method, Objective(f), iv, StopRule(epsilon=eps))
            assert res.n_iters == expected, (length, eps, method)
            assert iteration_bound(method, length, eps).k_exact == expected
    print("criterion 5 pass: 100 (length, tol) pairs match "
          "ceil(log_beta(L/(2 eps))) for beta in {2, 3}")


def test_criterion_6_bound_dominance():
    for length in (0.1, 1.0, 2.0, 17.3):
        for n in range(1, 101):
            h = accuracy_bound(Method.HALVING, length, n)
            t = accuracy_bound(Method.TRICHOTOMY, length, n)
            if n == 1:
                assert h == t
            else:
                assert h < t
    print("criterion 6 pass: halving bound <= trichotomy bound for N in "
          "1..100, equality only at N = 1")


def test_criterion_7_oracle_equivalence():
    t0 = time.perf_counter()
    rows = run_verify()    # 10^6+1 grid, tol 1e-6
    elapsed = time.perf_counter() - t0
    assert VERIFY_AGREEMENT == 1e-4
    assert len(rows) == 22 * 5
    for r in rows:
        assert abs(r.deviation) <= 1e-4, (r.case, r.method, r.deviation)
    assert elapsed < 30.0
    print(f"criterion 7 pass: 110/110 solver-oracle agreements within 1e-4, "
          f"{elapsed:.2f} s")


def test_criterion_8_halfwidth_accuracy():
    cases = [c for c in registry_table1() + registry_table2()
             if not (c.flags & {FLAG_ENDPOINT_MIN, FLAG_GARBLED})]
    assert len(cases) == 19
    methods = (Method.HALVING, Method.TRICHOTOMY, Method.DICHOTOMOUS,
               Method.GOLDEN)
    checked = 0
    for case in cases:
        for eps in (1e-3, 1e-6):
            for method in methods:
                res = minimize(method, Objective(case.fn), case.interval,
                               StopRule(epsilon=eps))
                assert abs(res.x_min - case.x_star) <= eps, \
                    (case.id, method, eps, res.x_min)
                checked += 1
    print(f"criterion 8 pass: {checked} runs with |x_hat - x*| <= eps at "
          f"eps in {{1e-3, 1e-6}}")


def test_criterion_9_byte_determinism(capsys):
    outputs = []
    for _ in range(3):
        code = cli_main(["table", "1", "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 0
        outputs.append(captured.out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert emit_report(run_table1(), "csv") == outputs[0]
    print("criterion 9 pass: three `table 1 --format csv` invocations "
          "byte-identical")
