"""Plain and traced runs of one workload, and the metrics they report."""
from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import checks
import probe
import tracer
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
# percentile of the per-op latencies reported as op_ms_tail: the highest
# with at least ten ops beyond it (1042 ops in a solve pass, 117 in a report
# pass); verify has one op, so the median alone
TAIL_PERCENTILE = {"solve": 99, "report": 90, "verify": 50}
# the traced run of one workload also takes the per-layer figures of the
# others from a short traced loop (at least one whole pass) of each
SIDE_SECONDS = 0.5

SETUP_CODE = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import unisearch, workloads
workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]))
print(time.perf_counter())
"""


def machine() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return (f"python {platform.python_version()}  numpy {numpy.__version__}  "
            f"nproc {len(os.sched_getaffinity(0))}  cpu {cpu}")


def start_s(code: str, *args: str) -> float:
    """Seconds from starting ``python -c code args`` to the perf_counter()
    value it prints last (the clock is shared by all processes)."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return float(done.stdout.split()[-1]) - t0


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Time from starting a fresh interpreter to ``import unisearch`` done
    and the workload's inputs built: normalised, and as measured.

    Each start is timed between two starts of the reference probe (a bare
    ``import numpy``), which slows by the same factor under interference;
    the median of the ratios times the probe's reference time is the
    normalised figure.  One untimed start first: the first start after a
    pause runs slower.
    """
    args = (SETUP_CODE, str(SRC), str(HERE), workload, str(seed))
    start_s(*args)
    ref = [start_s(probe.START)]
    raw, ratios = [], []
    for _ in range(SETUP_REPEATS):
        raw.append(start_s(*args))
        ref.append(start_s(probe.START))
        ratios.append(raw[-1] * 2 / (ref[-2] + ref[-1]))
    return (statistics.median(ratios) * probe.REFERENCE_NS["start"] / 1e9,
            statistics.median(raw))


def checked(w):
    """Run the untimed check pass; return it and whether every failing op
    is a known fault."""
    pc = w.check()
    unexpected = [k for k, r in enumerate(pc.reasons) if r and not w.expected_failure(k, r)]
    for k in unexpected[:5]:
        print(f"unexpected failure: {w.ops[k]!r}: {pc.reasons[k]}")
    for kind, n in sorted(workloads.failure_summary(pc.reasons).items()):
        print(f"failing check, ops per pass: {n:4d}  {kind}")
    return pc, not unexpected


def same_outputs(w, pc, timed) -> bool:
    """The last timed pass reproduced the checked pass exactly."""
    ok = [w.comparable(r) for r in timed.last_pass] == pc.results
    if not ok:
        print("timed pass output differs from the checked pass")
    return ok


def latencies(w, t) -> tuple[float, list[float]]:
    """Normalised ns of a timed loop: the mean time of one pass, which
    keeps every cost the loop paid (garbage collection lands on a different
    op in each pass), and each op's median latency over the passes."""
    lat = probe.normalised_ns(t.latencies_ns, t.marks, w.probe_kind)
    n = len(w.ops)
    return sum(lat) / t.passes, [statistics.median(lat[k::n]) for k in range(n)]


def probe_scale(w, t) -> float:
    """Reference over measured probe time for a whole timed loop.  The mean,
    not the median: probes are spread evenly over the loop's time, and the
    figures it scales are sums over that time."""
    return probe.REFERENCE_NS[w.probe_kind] / statistics.fmean(ns for _, ns in t.marks)


def timed(w, seconds: float, ops=None):
    return workloads.timed_loop(w.ops if ops is None else ops, w.runner(), seconds,
                                w.probe_kind, w.probe_every_s)


def plain_run(name: str, seed: int, seconds: float) -> dict:
    w = workloads.WORKLOADS[name](seed)
    setup, setup_raw = setup_seconds(name, seed)
    pc, correct = checked(w)
    t = timed(w, seconds)
    correct = same_outputs(w, pc, t) and correct

    n = len(w.ops)
    pass_ns, lat = latencies(w, t)
    pass_s = pass_ns / 1e9
    q = TAIL_PERCENTILE[name]
    tail = statistics.median(lat) if q == 50 else statistics.quantiles(lat, n=100)[q - 1]
    beyond = sum(1 for x in lat if x > tail)
    ops = t.passes * n
    print(f"{name}: {n} ops per pass, {t.passes} passes, {ops} ops in {t.elapsed_s:.3f} s: "
          f"{ops / t.elapsed_s:.1f} op/s by the wall clock; setup {setup_raw:.4f} s "
          f"as measured")
    print(f"{name}: {w.probe_kind} probe {statistics.median(ns for _, ns in t.marks):.0f} ns "
          f"(reference {probe.REFERENCE_NS[w.probe_kind]} ns) over {len(t.marks)} probes; "
          f"op_ms_tail is p{q} of {n} per-op latencies ({beyond} beyond)")
    print(f"{name}: mean pass {pass_s * 1e3:.4f} ms; the per-op medians add up to "
          f"{sum(lat) / 1e6:.4f} ms ({100 * (sum(lat) / pass_ns - 1):+.2f}%)")
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (n / pass_s, "op/s"),
        "op_ms_p50": (statistics.median(lat) / 1e6, "ms"),
        "op_ms_tail": (tail / 1e6, "ms"),
        "evals_per_s": (pc.evals / pass_s, "eval/s"),
        "evals_per_pass": (pc.evals, "eval"),
    }
    return result(correct, ops, t.passes * pc.failing, metrics)


def alloc_bytes_per_run(w) -> float:
    """Mean peak bytes allocated during one ``minimize`` call, over one
    pass under tracemalloc."""
    run, sizes = w.runner(), []
    tracemalloc.start()
    try:
        for op in w.ops:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            res = run(op)
            sizes.append(tracemalloc.get_traced_memory()[1] - base)
            del res
    finally:
        tracemalloc.stop()
    return statistics.fmean(sizes)


def traced_loop(w, seconds: float):
    costs = tracer.calibrate()
    for named, (inside, outside) in costs.items():
        print(f"{w.name}: {'named' if named else 'plain'} wrapper cost {inside:.0f} ns inside "
              f"its span, {outside:.0f} ns outside (at reference speed)")
    tr = tracer.Tracer(costs)
    tr.install()
    try:
        with workloads.registry_fns(tr.objective):
            t = timed(w, seconds, w.with_objective(tr.objective))
    finally:
        tr.uninstall()
    return tr, t


def layer_metrics(tr, t, w, pc) -> dict:
    """The per-layer metrics that workload ``w`` owns, from its traced loop
    ``t``, with times normalised by the loop's speed probes."""
    m, s = {}, probe_scale(w, t)
    if w.name == "solve":
        # ops of one pass that pass each check a known fault fails: a fix of
        # either fault raises one of these
        for kind, label in ((checks.PROBE_INSIDE, "probes_inside"),
                            (checks.ERROR_ABOVE, "error_within_tolerance"),
                            (checks.BUDGET_RULE, "budget_rule")):
            ok = sum(1 for r in pc.reasons if kind not in map(checks.kind, r))
            m[f"checks.ops_ok.{label}"] = (ok, "op")
        evals = tr.calls("fn")
        methods = sorted(k.split(".", 1)[1] for k in tr.stats if k.startswith("minimize."))
        m["core.fn_ns_per_eval"] = (tr.self_ns("fn", s) / evals, "ns")
        m["core.objective_ns_per_eval"] = (
            tr.self_ns("core.Objective.evaluate", s) / tr.calls("core.Objective.evaluate"), "ns")
        m["core.trace_ns_per_event"] = (
            (tr.total_ns("core.TraceEvent", s) + tr.total_ns("core.Interval", s))
            / tr.calls("core.TraceEvent"), "ns")
        m["solvers.ns_per_eval"] = (
            sum(tr.self_ns("minimize." + k, s) for k in methods) / evals, "ns")
        for k in methods:
            m[f"solvers.{k}.us_per_run"] = (tr.mean_ns("minimize." + k, s) / 1e3, "us")
        for k in methods:
            m[f"solvers.{k}.evals_per_run"] = (statistics.fmean(pc.evals_by_method[k]), "eval")
        m["solvers.alloc_bytes_per_run"] = (alloc_bytes_per_run(w), "B")
    elif w.name == "verify":
        oracle_ns = tr.mean_ns("oracle.brute_force_minimum", s)
        cases = tr.calls("oracle.brute_force_minimum")
        m["oracle.ms_per_case"] = (oracle_ns / 1e6, "ms")
        m["oracle.fn_ms_per_case"] = (tr.total_ns("fn.grid", s) / cases / 1e6, "ms")
        m["oracle.grid_points_per_s"] = (tr.grid_points / cases / (oracle_ns / 1e9), "pt/s")
        m["bench.run_verify_ms"] = (tr.mean_ns("bench.run_verify", s) / 1e6, "ms")
    else:
        for table in ("run_table1", "run_table2"):
            m[f"bench.{table}_ms"] = (tr.mean_ns("bench." + table, s) / 1e6, "ms")
        m["bench.emit_report_us"] = (tr.mean_ns("bench.emit_report", s) / 1e3, "us")
        m["cli.parse_us"] = (
            (tr.total_ns("cli.build_parser", s) + tr.total_ns("cli.parse_args", s))
            / tr.calls("cli.build_parser") / 1e3, "us")
        m["cli.render_trace_us"] = (
            tr.self_ns("cli.main.run", s) / tr.calls("cli.main.run") / 1e3, "us")
    return m


def traced_run(name: str, seed: int, seconds: float) -> dict:
    w = workloads.WORKLOADS[name](seed)
    pc, correct = checked(w)
    plain = timed(w, seconds / 2)
    tr, traced = traced_loop(w, seconds / 2)
    correct = same_outputs(w, pc, plain) and same_outputs(w, pc, traced) and correct

    metrics = layer_metrics(tr, traced, w, pc)
    for other in workloads.WORKLOADS:
        if other != name:
            ow = workloads.WORKLOADS[other](seed)
            opc, ok = checked(ow)
            otr, ot = traced_loop(ow, SIDE_SECONDS)
            metrics.update(layer_metrics(otr, ot, ow, opc))
            correct = ok and correct

    plain_rate = len(w.ops) / (latencies(w, plain)[0] / 1e9)
    traced_rate = len(w.ops) / (latencies(w, traced)[0] / 1e9)
    metrics["trace.overhead_ops_per_s"] = (plain_rate - traced_rate, "op/s")
    metrics["trace.overhead_pct"] = (100 * (plain_rate - traced_rate) / plain_rate, "%")
    print(f"{name}: untraced {plain_rate:.1f} op/s, traced {traced_rate:.1f} op/s")
    ops = (plain.passes + traced.passes) * len(w.ops)
    return result(correct, ops, (plain.passes + traced.passes) * pc.failing, metrics)


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    for k, (v, unit) in metrics.items():
        print(f"  {k:34s} {v:16.6f} {unit}")
    print(f"attempted {attempted}, failed {failed}, correct {correct}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
