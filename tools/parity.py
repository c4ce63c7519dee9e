"""Compare what two source trees of unisearch print and compute.

    python3 tools/parity.py OLD_TREE NEW_TREE

For each tree, one fresh interpreter runs with ``PYTHONPATH=<tree>/src`` and
dumps one record per line:

* in-process ``cli.main`` on ``table 1|2`` in three formats, ``verify``
  with and without ``--quiet``, ``run`` for every registry case and method
  under ``--tol 1e-6`` and ``--budget 20`` (json and markdown with
  ``--trace``, markdown, csv, and one ``--trace --format csv``), ``run
  dichotomous`` on four cases and ``run halving`` on one, each with
  ``--delta``, a few ``bounds`` and ``list`` commands, no arguments,
  ``--help`` of the program and of each subcommand, and ten usage errors,
  ``verify --grid`` among them (``verify`` takes no grid): stdout, stderr
  and exit code (``SystemExit``'s code where argparse exits), with help
  text wrapped at ``COLUMNS=80``;
* ``minimize`` on the 23 registry cases x 5 methods under ε 1e-2 ... 1e-15
  and budgets 2 ... 100;
* ``minimize`` on the benchmark's four float64-floor brackets and on
  [1e15, 1e15+8], with ε down to 1e-300 and budgets up to 1400;
* ``minimize`` with ``delta`` on the 23 registry cases under ε 1e-6 and
  budget 20: dichotomous at δ 1e-3, 1e-5, 1e-9, 0 and L/4, and every other
  method at δ 0.01; Fibonacci at budgets 1400 and 1401, and under ε with and
  without δ;
* ``brute_force_minimum`` and ``is_unimodal`` on the 23 registry cases at
  3, 8191, 8192, 8193, 16385, 10,001 and 1,000,001 grid points, each with
  inset 0 and ``VERIFY_INSET`` (1e-9) times the bracket length, verify's
  grid among them, and every one of those grids itself;
* the same scans of ``|x|``, and the grids, on a bracket 1,000 subnormals
  wide, where ``np.linspace``'s step underflows to 0 at every grid size but
  3, with inset 0 and one subnormal.

A run is written with floats as ``float.hex``: ``x_min``, ``f_min``,
``n_evals``, ``n_iters``, the final interval and every trace event.  A failed
run is written as the exception type, message and ``partial_trace``.
``Objective.count`` is written for both.  An oracle scan is written as the
minimizer and its value as ``float.hex``, or the verdict; a failed one as
the exception type, message and ``x``.  A grid is written as the SHA-256 of
its float64 bytes, in scan order.  The tool prints the first
differing records, then how many records of each kind differ (a kind is a
record key's first element, and the subcommand for ``cli``, as in ``cli
run`` or ``floor``) and how many records it compared, and exits 1 on any
difference, 0 when every record is identical.
"""
from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

EPSILONS = tuple(10.0 ** -k for k in range(2, 16))
BUDGETS = (2, 3, 4, 5, 6, 7, 8, 10, 12, 15, 20, 30, 50, 100)
# (c, lo, hi): (x - c)**2 where one ulp of the bracket is far above ε;
# the first four are the benchmark's floor cases
FLOOR_CASES = (
    (1e6 + 0.3, 1e6, 1e6 + 1.0),
    (1e6 + 0.7, 1e6, 1e6 + 1.0),
    (-(1e6 + 0.3), -(1e6 + 1.0), -1e6),
    (4e6 + 0.3, 4e6, 4e6 + 1.0),
    (1e15 + 2.5, 1e15, 1e15 + 8.0),
)
# either side of the oracle's 8192-point blocks, a coarse grid and verify's
# default grid
ORACLE_POINTS = (3, 8191, 8192, 8193, 2 * 8192 + 1, 10_001, 1_000_001)
TINY = 5e-324            # the least positive subnormal
SUBNORMAL_BRACKET = (-3 * TINY, 997 * TINY)
FLOOR_EPSILONS = (1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 1e-30, 1e-100, 1e-300)
FLOOR_BUDGETS = (2, 10, 30, 60, 100, 200, 400, 1400)
# dichotomous offsets either side of its rule 0 < delta < L/4 (L/4 is added
# per case), and one offset for every other method, which refuses it
DELTAS = (1e-3, 1e-5, 1e-9, 0.0)
OTHER_DELTA = 0.01
FIB_BUDGETS = (1400, 1401)     # the largest budget Fibonacci accepts, and one more
DELTA_CASES = ("t1_01", "t1_10", "t1_14", "t2_03")
SHOWN = 5                # differing records printed


def _h(value):
    return value.hex() if isinstance(value, float) else repr(value)


def _events(trace):
    return [[ev.iteration, _h(ev.interval_after.lo), _h(ev.interval_after.hi),
             ev.evals_this_iter, [[_h(x), _h(fx)] for x, fx in ev.probes]]
            for ev in trace]


def _solve(minimize, method, obj, iv, stop, **kw):
    try:
        res = minimize(method, obj, iv, stop, **kw)
    except Exception as e:     # a failure is part of the record
        return ["error", type(e).__name__, str(e),
                _events(getattr(e, "partial_trace", ())), obj.count]
    return [_h(res.x_min), _h(res.f_min), res.n_evals, res.n_iters,
            _h(res.final_interval.lo), _h(res.final_interval.hi),
            _events(res.trace), obj.count]


def _oracle(scan, f, iv, grid):
    try:
        with np.errstate(all="ignore"):     # the poles at inset 0 warn
            res = scan(f, iv, grid)
    except Exception as e:     # a failure is part of the record
        return ["error", type(e).__name__, str(e), _h(getattr(e, "x", None))]
    return [_h(v) for v in res] if isinstance(res, tuple) else res


def _grid(brute_force_minimum, iv, grid):
    """The SHA-256 of the grid's float64 bytes, as the oracle scans it."""
    digest = hashlib.sha256()

    def identity(xs):
        digest.update(np.ascontiguousarray(xs, dtype=float).tobytes())
        return xs

    brute_force_minimum(identity, iv, grid)
    return digest.hexdigest()


def _cli_commands(cases, methods):
    yield from (["table", t, "--format", f] for t in ("1", "2")
                for f in ("markdown", "csv", "json"))
    yield ["verify"]
    yield ["verify", "--quiet"]
    for case in cases:
        for method in methods:
            for stop in (["--tol", "1e-6"], ["--budget", "20"]):
                base = ["run", method, case, *stop]
                yield base + ["--trace", "--format", "json"]
                yield base + ["--trace"]
                yield base
                yield base + ["--format", "csv"]
    yield ["run", "halving", "t1_01", "--tol", "1e-6", "--trace", "--format", "csv"]
    yield from (["run", "dichotomous", case, "--tol", "1e-6", "--delta", "1e-5"]
                for case in DELTA_CASES)
    yield ["run", "halving", "t1_01", "--tol", "1e-6", "--delta", "0.01"]
    yield from (["bounds", "--length", length, *rule] for length in ("1", "2", "1e-300")
                for rule in (["--tol", "0.1"], ["--tol", "0.6"], ["--budget", "10"],
                             ["--budget", "2000"]))
    yield from (["list", *opt] for opt in ([], ["--table", "1"], ["--table", "2"],
                                           ["--flag", "endpoint"], ["--flag", "garbled"]))
    yield from ([], ["--help"])
    yield from ([cmd, "--help"] for cmd in ("list", "run", "table", "bounds", "verify"))
    yield from (["frob"], ["run"], ["run", "golden", "t1_01"],
                ["run", "nope", "t1_01", "--tol", "1e-6"],
                ["run", "golden", "t1_01", "--tol", "1e-6", "--budget", "20"],
                ["run", "golden", "t1_01", "--tol", "-0.1"],
                ["table", "3"], ["bounds", "--length", "1"], ["verify", "--grid", "x"],
                ["verify", "--grid", "10001"])


def dump() -> None:
    """Write every record of the imported tree to stdout, one JSON list per line."""
    import unisearch
    from unisearch import cli
    from unisearch.bench import VERIFY_INSET, all_cases
    from unisearch.core import Interval, Objective, StopRule
    from unisearch.oracle import GridSpec, brute_force_minimum, is_unimodal
    from unisearch.solvers import Method, minimize

    out = sys.stdout
    out.write(json.dumps(["tree", os.path.abspath(unisearch.__file__)]) + "\n")

    def write(key, value):
        out.write(json.dumps([key, value]) + "\n")

    cases = all_cases()
    methods = [m.value for m in Method]
    for argv in _cli_commands([c.id for c in cases], methods):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code
        write(["cli", *argv], [stdout.getvalue(), stderr.getvalue(), code])

    stops = ([StopRule(epsilon=e) for e in EPSILONS]
             + [StopRule(budget=n) for n in BUDGETS])
    for case in cases:
        for method in Method:
            for stop in stops:
                write(["minimize", case.id, method.value, repr(stop)],
                      _solve(minimize, method, Objective(case.fn), case.interval, stop))

    oracle_runs = [(case.id, case.fn, case.interval, (0.0, case.interval.length() * VERIFY_INSET))
                   for case in cases]
    oracle_runs.append(("subnormal", abs, Interval(*SUBNORMAL_BRACKET), (0.0, TINY)))
    for name, fn, iv, insets in oracle_runs:
        for points in ORACLE_POINTS:
            for inset in insets:
                grid = GridSpec(points=points, inset=inset)
                write(["grid", name, points, _h(inset)], _grid(brute_force_minimum, iv, grid))
                for scan in (brute_force_minimum, is_unimodal):
                    write(["oracle", scan.__name__, name, points, _h(inset)],
                          _oracle(scan, fn, iv, grid))

    floor_stops = ([StopRule(epsilon=e) for e in FLOOR_EPSILONS]
                   + [StopRule(budget=n) for n in FLOOR_BUDGETS])
    for c, lo, hi in FLOOR_CASES:
        for method in Method:
            for stop in floor_stops:
                write(["floor", _h(c), _h(lo), _h(hi), method.value, repr(stop)],
                      _solve(minimize, method, Objective(lambda x: (x - c) ** 2),
                             Interval(lo, hi), stop))

    for case in cases:
        for stop in (StopRule(epsilon=1e-6), StopRule(budget=20)):
            for delta in (*DELTAS, case.interval.length() / 4):
                write(["delta", case.id, Method.DICHOTOMOUS.value, repr(stop), _h(delta)],
                      _solve(minimize, Method.DICHOTOMOUS, Objective(case.fn), case.interval,
                             stop, delta=delta))
            for method in Method:
                if method is not Method.DICHOTOMOUS:
                    write(["delta", case.id, method.value, repr(stop), _h(OTHER_DELTA)],
                          _solve(minimize, method, Objective(case.fn), case.interval, stop,
                                 delta=OTHER_DELTA))
        for n in FIB_BUDGETS:
            write(["fibonacci", case.id, n],
                  _solve(minimize, Method.FIBONACCI, Objective(case.fn), case.interval,
                         StopRule(budget=n)))
        for delta in (None, OTHER_DELTA):
            write(["fibonacci", case.id, "epsilon", _h(delta)],
                  _solve(minimize, Method.FIBONACCI, Objective(case.fn), case.interval,
                         StopRule(epsilon=1e-6), delta=delta))


def _records(tree: str) -> list[str]:
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.abspath(tree), "src")
    # help text wraps at $COLUMNS
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]), COLUMNS="80")
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, "-c", "import parity; parity.dump()"],
                              env=env, cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"dump of {tree} failed:\n{proc.stderr}")
    header, *records = proc.stdout.splitlines()
    loaded = json.loads(header)[1]
    if not loaded.startswith(src + os.sep):
        sys.exit(f"dump of {tree} imported unisearch from {loaded}, not from {src}")
    return records


def _kind(record: str) -> str:
    key = json.loads(record)[0]
    return f"cli {key[1]}" if key[0] == "cli" and len(key) > 1 else key[0]


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} OLD_TREE NEW_TREE")
    old, new = (_records(tree) for tree in sys.argv[1:])
    differ = [(a, b) for a, b in zip(old, new) if a != b]
    for a, b in differ[:SHOWN]:
        at = next(i for i, (x, y) in enumerate(zip(a + "\0", b + "\1")) if x != y)
        print(f"{json.loads(a)[0]}\n- ...{a[max(0, at - 120):at + 120]}\n"
              f"+ ...{b[max(0, at - 120):at + 120]}\n")
    kinds = collections.Counter(_kind(a) for a in old[:len(new)])
    for kind, n in collections.Counter(_kind(a) for a, _ in differ).items():
        print(f"{kind}: {n} of {kinds[kind]} records differ")
    if len(old) != len(new):
        print(f"record counts differ: {len(old)} old, {len(new)} new")
    print(f"{len(differ)} of {min(len(old), len(new))} records differ")
    return 1 if differ or len(old) != len(new) else 0


if __name__ == "__main__":
    sys.exit(main())
