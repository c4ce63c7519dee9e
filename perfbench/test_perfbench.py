"""Tests of the benchmark itself: the generator is deterministic and the
checks reject wrong answers.

    python3 -m pytest perfbench -q
"""
import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402
from unisearch import cli, core  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _key(inp):
    p = inp.problem
    return (p.family, p.lo, p.hi, p.x_star, p.fn((p.lo + p.hi) / 2),
            inp.method, inp.epsilon, inp.budget)


def test_solve_inputs_are_deterministic_per_seed():
    a, b = inputs.solve_inputs(7), inputs.solve_inputs(7)
    assert [_key(i) for i in a] == [_key(i) for i in b]
    assert [_key(i) for i in a] != [_key(i) for i in inputs.solve_inputs(8)]


def test_report_inputs_are_deterministic_per_seed():
    ids = ["t1_01", "t1_02", "t2_01"]
    assert inputs.report_inputs(3, ids) == inputs.report_inputs(3, ids)
    assert inputs.report_inputs(3, ids) != inputs.report_inputs(4, ids)


def test_floor_share_does_not_depend_on_the_seed():
    shares = set()
    for seed in range(5):
        ops = inputs.solve_inputs(seed)
        floor = sorted(_key(i) for i in ops if i.problem.floor)
        shares.add((len(ops), tuple(floor)))
    assert len(shares) == 1
    n_ops, floor = shares.pop()
    assert n_ops >= 1000 and len(floor) == len(inputs.FLOOR_CASES) * len(inputs.EPS_METHODS)


def test_inputs_cover_methods_stop_rules_and_ranges():
    ops = inputs.solve_inputs(0)
    assert {(i.method, i.budget is None) for i in ops} == (
        {(m, True) for m in inputs.EPS_METHODS} | {(m, False) for m in inputs.BUDGET_METHODS})
    eps = [i.epsilon for i in ops if i.epsilon is not None and not i.problem.floor]
    assert 1e-11 < min(eps) < 1e-9 and 1e-4 < max(eps) <= 1e-3
    budgets = {i.budget for i in ops if i.budget is not None}
    assert min(budgets) == 10 and max(budgets) == 60
    assert any(i.problem.x_star in (i.problem.lo, i.problem.hi) for i in ops)


def test_fibonacci_numbers():
    assert [checks.fibonacci(n) for n in range(8)] == [1, 1, 2, 3, 5, 8, 13, 21]


@pytest.fixture(scope="module")
def solve():
    w = workloads.Solve(5)
    return w, w.runner()


def _first(w, **want):
    for inp, op in zip(w.inputs, w.ops):
        if not inp.problem.floor and all(getattr(inp, k) == v for k, v in want.items()):
            return inp, op
    raise LookupError(want)


def _failing(w):
    pc = w.check()
    return pc, {k for k, r in enumerate(pc.reasons) if r}


def test_only_known_faults_fail(solve):
    w, _ = solve
    pc, failing = _failing(w)
    assert all(w.expected_failure(k, pc.reasons[k]) for k in failing)
    floor = {k for k, i in enumerate(w.inputs) if i.problem.floor}
    halving_floor = {k for k, i in enumerate(w.inputs)
                     if checks.known_fault_kinds(i) and not i.problem.floor}
    assert failing == floor | halving_floor and len(halving_floor) == 1


def test_failures_by_kind_do_not_depend_on_the_seed():
    for seed in range(4):
        counts = workloads.failure_summary(workloads.Solve(seed).check().reasons)
        assert counts == {checks.PROBE_INSIDE: 17, checks.ERROR_ABOVE: 4, checks.BUDGET_RULE: 1}


def test_a_known_fault_forgives_only_its_own_kinds(solve):
    w, run = solve
    k = next(k for k, i in enumerate(w.inputs) if i.problem.floor and i.method == "golden")
    inp, res = w.inputs[k], run(w.ops[k])
    assert w.expected_failure(k, checks.check_solve(inp, res, res.n_evals))
    moved = dataclasses.replace(res, x_min=res.x_min + 0.25)
    reasons = checks.check_solve(inp, moved, res.n_evals)
    assert any(r.startswith(checks.ERROR_ABOVE) for r in reasons)
    assert not w.expected_failure(k, reasons)


def test_check_rejects_estimate_moved_by_a_bracket_length(solve):
    w, run = solve
    inp, op = _first(w, method="golden", budget=None)
    res = run(op)
    n = res.n_evals
    assert checks.check_solve(inp, res, n) == []
    moved = dataclasses.replace(res, x_min=res.x_min + (inp.problem.hi - inp.problem.lo))
    reasons = checks.check_solve(inp, moved, n)
    assert "estimate outside the final bracket" in reasons
    assert any(r.startswith("error above tolerance") for r in reasons)


def test_check_rejects_probe_on_an_endpoint(solve):
    w, run = solve
    inp, op = _first(w, method="halving", budget=None)
    res = run(op)
    ev = res.trace[0]
    probes = ((inp.problem.lo, ev.probes[0][1]),) + ev.probes[1:]
    bad = dataclasses.replace(res, trace=(dataclasses.replace(ev, probes=probes),) + res.trace[1:])
    assert checks.PROBE_INSIDE in checks.check_solve(inp, bad, res.n_evals)


def test_check_rejects_fibonacci_one_evaluation_short(solve):
    w, run = solve
    inp, (method, fn, iv, _) = _first(w, method="fibonacci")
    short = run((method, fn, iv, core.StopRule(budget=inp.budget - 1)))
    reasons = checks.check_solve(inp, short, short.n_evals)
    assert any(r.startswith("evaluations outside the budget rule") for r in reasons)


def test_check_rejects_uncounted_evaluations(solve):
    w, run = solve
    inp, op = _first(w, method="trichotomy", budget=None)
    res = run(op)
    assert any(r.startswith("n_evals differs") for r in checks.check_solve(inp, res, res.n_evals + 1))


def _run_json(argv):
    rc, out = workloads.Report(0).runner()(argv)
    assert rc == 0
    return out


def test_run_json_check_accepts_real_output_and_rejects_tampering():
    argv = ["run", "halving", "t1_02", "--tol", "1e-06", "--trace", "--format", "json"]
    out = _run_json(argv)
    lo, hi = 0.5, 2.0
    assert checks.check_run_json(argv, lo, hi, 0, out) == []
    p = json.loads(out)

    wide = json.loads(out)
    wide["trace"][2]["hi"] = p["trace"][1]["hi"] + 1.0
    assert "brackets not nested" in checks.check_run_json(argv, lo, hi, 0, json.dumps(wide))

    ratio = json.loads(out)
    ratio["trace"][3]["lo"] = p["trace"][3]["lo"] + (p["trace"][3]["hi"] - p["trace"][3]["lo"]) / 4
    assert any(r.startswith("bracket does not shrink") or r == "brackets not nested"
               for r in checks.check_run_json(argv, lo, hi, 0, json.dumps(ratio)))

    count = json.loads(out)
    count["n_evals"] += 1
    assert "per-iteration evals do not sum to n_evals" in checks.check_run_json(
        argv, lo, hi, 0, json.dumps(count))
    assert checks.check_run_json(argv, lo, hi, 3, out) == ["nonzero exit code: 3"]


def test_run_json_check_rejects_fibonacci_one_evaluation_short():
    argv = ["run", "fibonacci", "t2_01", "--budget", "20", "--trace", "--format", "json"]
    short = _run_json(argv[:4] + ["19"] + argv[5:])
    assert any(r.startswith("evaluations outside the budget rule")
               for r in checks.check_run_json(argv, 0.0, 2.0, 0, short))


def test_verify_check_rejects_failed_rows_and_oracle_off_grid():
    cases = {"c1": (0.0, 1.0, 0.25)}
    line = "c1 {m}: x=0.25 oracle={o!r} diff=1.000e-09 {mark}"
    methods = ("halving", "trichotomy", "dichotomous", "golden", "fibonacci")
    good = "\n".join(line.format(m=m, o=0.25, mark="ok") for m in methods)
    assert checks.check_verify(0, good, cases, 1_000_001) == []
    failed = good.replace("ok", "FAIL", 1)
    assert "verify row failed: c1 halving" in checks.check_verify(3, failed, cases, 1_000_001)
    off = "\n".join(line.format(m=m, o=0.25 + 3e-6, mark="ok") for m in methods)
    assert any(r.startswith("oracle more than one grid step")
               for r in checks.check_verify(0, off, cases, 1_000_001))
    assert "verify rows do not cover every method" in checks.check_verify(
        0, "\n".join(good.splitlines()[:4]), cases, 1_000_001)


def test_tracer_self_time_is_span_minus_children():
    tr = tracer.Tracer({False: (0.0, 0.0), True: (0.0, 0.0)})
    inner = tr.wrap("inner", lambda: sum(range(2000)))
    outer = tr.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    outer()
    assert tr.calls("outer") == 2 and tr.calls("inner") == 6
    assert tr.self_ns("outer") == pytest.approx(tr.total_ns("outer") - tr.total_ns("inner"))
    assert tr.self_ns("inner") == tr.total_ns("inner") > 0


def test_tracer_restores_the_program():
    before = (cli.main, cli.build_parser, cli.minimize)
    tr = tracer.Tracer(tracer.calibrate(n=1000, repeats=1))
    tr.install()
    try:
        assert cli.main is not before[0]
        with workloads.registry_fns(tr.objective):
            rc, _ = workloads.Report(0).runner()(["run", "golden", "t1_01", "--tol", "1e-3"])
        assert rc == 0 and tr.calls("minimize.golden") == 1 and tr.calls("fn") > 0
    finally:
        tr.uninstall()
    assert (cli.main, cli.build_parser, cli.minimize) == before
