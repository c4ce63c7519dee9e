"""Compare what two source trees of unisearch print and compute.

    python3 tools/parity.py OLD_TREE NEW_TREE

For each tree, one fresh interpreter runs with ``PYTHONPATH=<tree>/src`` and
dumps one record per line:

* in-process ``cli.main`` on ``table 1|2`` in three formats, ``verify``
  with and without ``--quiet``, ``run`` for every registry case and method
  under ``--tol 1e-6`` and ``--budget 20`` (json and markdown, each with and
  without ``--trace``, csv, and one ``--trace --format csv``) and under
  ``--tol 1e-300`` (json and markdown with ``--trace``), a few ``bounds``
  commands (two of them with L/(2*tol) exactly 3^5 and 2^29, powers of the
  shrink bases), a few ``list`` commands, no arguments, ``--help`` of the
  program and of each subcommand, 19 usage errors, among them ``verify
  --grid`` (``verify`` takes no grid), a malformed ``--tol abc`` and
  ``--budget 2.5``, and ``bounds`` values outside the bounds' domain
  (``--length 0|-1|nan|inf``, ``--tol 0|inf``, ``--budget 0``), ``bounds
  --length 2 --budget 1``, the least budget of ``accuracy_bound``, and 23
  near misses of the ``run`` form that ``main`` parses without argparse
  (``--tol=1e-6``, ``--tr``, a repeated flag, both stop flags or neither,
  ``--``, an option before the positionals, a case or value starting with
  ``-``, a missing value, ``--help``, and the values it parses and
  ``StopRule`` rejects: ``nan``, ``inf``, ``1e400``, ``--budget 1``), and
  well-formed ``run`` commands whose options are out of the usage line's
  order, which ``main`` leaves to argparse (every method, ``--tol 1e-6`` on
  t1_01 and ``--budget 20`` on t2_01, with ``--trace`` and ``--format
  json`` in each other order, and with ``--trace`` or ``--format csv``
  alone before the stop rule): stdout, stderr and exit code
  (``SystemExit``'s code where argparse exits), with help text wrapped at
  ``COLUMNS=80``;
* ``minimize`` on the 23 registry cases x 5 methods under ε 1e-2 ... 1e-15
  and budgets 2 ... 100;
* ``minimize`` on the benchmark's four float64-floor brackets and on
  [1e15, 1e15+8], with ε down to 1e-300 and budgets up to 1400;
* ``minimize`` on the 23 registry cases: Fibonacci at budgets 1400, 1401
  and 5000, far past the 44 stages its ladder holds, and under ε 1e-6;
* ``minimize`` of (x - 0.3)**2 on int brackets: every method on
  ``Interval(0, 1)`` under ε 1e-6 and budget 20 and on ``Interval(0,
  10**400)`` under budget 5, and Fibonacci on ``Interval(0, 1)`` under ε
  1e-320; an error raised while building the ``Interval`` is part of the
  record;
* ``minimize`` on the brackets of t1_02 and t2_01 given as np.float64 and
  as np.float32 endpoints: every method under ε 1e-6 and budget 20;
* ``minimize`` on t1_02 and t2_01, every method under ε 1e-6 and budgets
  20 and 21, with NaN returned at call k for every k from 1 to the clean
  run's ``n_evals``: the ``NonFiniteValue`` failure path;
* ``minimize`` on t1_02 and t2_01 with one Objective across runs: every
  method under budget 20 and then ε 1e-6, and, under each of the two, a run
  with NaN returned at call 1 or 5 followed by the same clean run;
* ``brute_force_minimum`` on the 23 registry cases at 3, 8191, 8192,
  8193, 16385, 10,001 and 1,000,001 grid points, each with inset 0 and
  ``VERIFY_INSET`` (1e-9) times the bracket length, verify's grid among
  them, and every one of those grids itself;
* the same scan of ``|x|``, and the grids, on a bracket 1,000 subnormals
  wide, where ``np.linspace``'s step underflows to 0 at every grid size but
  3, with inset 0 and one subnormal;
* ``brute_force_minimum``'s failure path on the integer grids 0, 1, ...,
  n - 1 of 8,193 and 1,000,001 points: (x - 3)**2 with one NaN, +inf or
  -inf at the first and the last point of block 0, at a point of block 2
  and at the grid's last point (at 8,193 points a one-point last block);
  with two in block 0, +inf before NaN, NaN before -inf and -inf before
  +inf; and, from a function that refuses an array, one +inf at the first
  point of block 1.

An inset grid is passed as the bracket ``Interval(lo + inset, hi - inset)``
and ``points``.

A run is written with Python floats as ``float.hex`` and any other value, a
NumPy scalar among them, as its ``repr``: ``x_min``, ``f_min``,
``n_evals``, ``n_iters``, the final interval and every trace event.  A failed
run is written as the exception type, message and ``partial_trace``.
``Objective.count`` is written for both.  Runs on one Objective are written
together, each with the count after it, once the last of them is done.  An
oracle scan is written as the minimizer and its value as ``float.hex``; a
failed one as the exception type, message and ``x``.  A grid
is written as the SHA-256 of its float64 bytes, in scan order.  The tool
prints the first differing records, then how many records of each kind
differ (a kind is a record key's first element, and the subcommand for
``cli``, as in ``cli run`` or ``floor``) and how many records it compared,
and exits 1 on any difference, 0 when every record is identical.
"""
from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import itertools
import json
import math
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
FIB_BUDGETS = (1400, 1401, 5000)
NONFINITE = {"nan": math.nan, "+inf": math.inf, "-inf": -math.inf}
NONFINITE_POINTS = (8193, 1_000_001)
NAN_CASES = ("t1_02", "t2_01")
NUMPY_CASES = NAN_CASES     # whose brackets are also run as NumPy scalars
INT_HIS = {"1": 1, "10**400": 10 ** 400}    # hi of the int brackets [0, hi]
REUSE_NAN_AT = (1, 5)    # the NaN call of a run followed by a clean one
SHOWN = 5                # differing records printed


def _h(value):
    # a NumPy scalar prints as its repr, so a change of type shows
    return value.hex() if type(value) is float else repr(value)


def _events(trace):
    return [[ev.iteration, _h(ev.interval_after.lo), _h(ev.interval_after.hi),
             ev.evals_this_iter, [[_h(x), _h(fx)] for x, fx in ev.probes]]
            for ev in trace]


def _runs(minimize, method, obj, iv, stops):
    """One run of ``method`` per stop, all on the one Objective ``obj``, each
    written with the count after it once the last run is done, so that a
    later run that changed an earlier result would show."""
    outcomes = []
    for stop in stops:
        try:
            outcomes.append((minimize(method, obj, iv, stop), obj.count))
        except Exception as e:     # a failure is part of the record
            outcomes.append((e, obj.count))
    return [["error", type(res).__name__, str(res),
             _events(getattr(res, "partial_trace", ())), count]
            if isinstance(res, Exception) else
            [_h(res.x_min), _h(res.f_min), res.n_evals, res.n_iters,
             _h(res.final_interval.lo), _h(res.final_interval.hi),
             _events(res.trace), count]
            for res, count in outcomes]


def _solve(minimize, method, obj, iv, stop):
    return _runs(minimize, method, obj, iv, [stop])[0]


def _nan_at(f, k):
    """``f``, except that call number ``k`` (1-based) returns NaN."""
    calls = [0]

    def fn(x):
        calls[0] += 1
        return math.nan if calls[0] == k else f(x)

    return fn


def _oracle(brute_force_minimum, f, grid):
    try:
        with np.errstate(all="ignore"):     # the poles at inset 0 warn
            res = brute_force_minimum(f, *grid)
    except Exception as e:     # a failure is part of the record
        return ["error", type(e).__name__, str(e), _h(getattr(e, "x", None))]
    return [_h(v) for v in res]


def _grid(brute_force_minimum, grid):
    """The SHA-256 of the grid's float64 bytes, as the oracle scans it."""
    digest = hashlib.sha256()

    def identity(xs):
        digest.update(np.ascontiguousarray(xs, dtype=float).tobytes())
        return xs

    brute_force_minimum(identity, *grid)
    return digest.hexdigest()


def _nonfinite_at(bad, scalar_only=False):
    """(x - 3)**2, except the value ``bad[x]`` at each x in ``bad``; with
    ``scalar_only`` it refuses an array, so the oracle calls it per point."""
    def fn(x):
        if not isinstance(x, np.ndarray):
            return bad.get(float(x), (x - 3.0) ** 2)
        if scalar_only:
            raise TypeError("scalar only")
        y = (x - 3.0) ** 2
        for at, value in bad.items():
            y[x == at] = value
        return y

    return fn


def _nonfinite_scans(points):
    """(label, objective) of each failure-path scan of the integer grid of
    ``points`` points."""
    places = {"block 0 first": 0, "block 0 last": 8191, "block 2": 2 * 8192 + 7,
              "last point": points - 1}
    for name, value in NONFINITE.items():
        for place, at in places.items():
            if at < points:
                yield f"{name} at {place}", _nonfinite_at({float(at): value})
    for first, second in (("+inf", "nan"), ("nan", "-inf"), ("-inf", "+inf")):
        yield (f"{first} before {second}",
               _nonfinite_at({5.0: NONFINITE[first], 9.0: NONFINITE[second]}))
    yield "scalar-only +inf", _nonfinite_at({8192.0: math.inf}, scalar_only=True)


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
                yield base + ["--format", "json"]
                yield base
                yield base + ["--format", "csv"]
            # at the float64 floor most bracket ends repeat probe points
            base = ["run", method, case, "--tol", "1e-300", "--trace"]
            yield base + ["--format", "json"]
            yield base
    yield ["run", "halving", "t1_01", "--tol", "1e-6", "--trace", "--format", "csv"]
    yield from (["bounds", "--length", length, *rule] for length in ("1", "2", "1e-300")
                for rule in (["--tol", "0.1"], ["--tol", "0.6"], ["--budget", "10"],
                             ["--budget", "2000"]))
    # L/(2*tol) exactly 3^5 and 2^29, where a float log can land off the power
    yield ["bounds", "--length", "243", "--tol", "0.5"]
    yield ["bounds", "--length", "536870912", "--tol", "0.5"]
    yield from (["list", *opt] for opt in ([], ["--table", "1"], ["--table", "2"],
                                           ["--flag", "endpoint"], ["--flag", "garbled"]))
    yield from ([], ["--help"])
    yield from ([cmd, "--help"] for cmd in ("list", "run", "table", "bounds", "verify"))
    yield from (["frob"], ["run"], ["run", "golden", "t1_01"],
                ["run", "nope", "t1_01", "--tol", "1e-6"],
                ["run", "golden", "t1_01", "--tol", "1e-6", "--budget", "20"],
                ["run", "golden", "t1_01", "--tol", "-0.1"],
                ["table", "3"], ["bounds", "--length", "1"], ["verify", "--grid", "x"],
                ["verify", "--grid", "10001"],
                ["run", "golden", "t1_01", "--tol", "abc"],
                ["run", "golden", "t1_01", "--budget", "2.5"])
    # bounds values that argparse parses and the bound functions check
    yield from (["bounds", "--length", length, "--tol", "0.1"]
                for length in ("0", "-1", "nan", "inf"))
    yield from (["bounds", "--length", "1", "--tol", tol] for tol in ("0", "inf"))
    yield from (["bounds", "--length", "2", "--budget", n] for n in ("0", "1"))
    # near misses of the `run` form that main parses without argparse; each
    # goes through argparse, which takes or rejects it, but for the values
    # that main parses and StopRule rejects (nan, inf, 1e400, --budget 1)
    yield from (["run", "golden", "t1_01", *tail] for tail in (
        ["--tol=1e-6"], ["--tol", "1e-6", "--tr"], ["--tol", "1e-6", "--form", "json"],
        ["--tol", "1e-3", "--tol", "1e-6"], ["--tol", "nan", "--tol", "1e-6"],
        ["--tol", "1e-6", "--trace", "--trace"], ["--budget", "20", "--format", "csv",
                                                  "--format", "json"],
        ["--tol", "1e-6", "--budget", "20"], ["--trace"], ["--", "--tol", "1e-6"],
        ["--tol", "1e-6", "--"], ["--tol", "-1"], ["--tol", "nan"], ["--tol", "inf"],
        ["--tol", "1e400"], ["--budget", "1"], ["--tol"], ["--budget", "20", "--format"],
        ["--tol", "1e-6", "--help"]))
    # well-formed, but out of the usage line's order: main leaves them to argparse
    for method in methods:
        for base in (["run", method, "t1_01", "--tol", "1e-6"],
                     ["run", method, "t2_01", "--budget", "20"]):
            stop = base[3:]
            orders = itertools.permutations([stop, ["--trace"], ["--format", "json"]])
            next(orders)    # the usage line's order comes first
            yield from ([*base[:3], *itertools.chain(*options)] for options in orders)
            yield [*base[:3], "--trace", *stop]
            yield [*base[:3], "--format", "csv", *stop]
    yield from (["run", "--tol", "1e-6", "golden", "t1_01"],
                ["run", "--trace", "golden", "t1_01", "--tol", "1e-6"],
                ["run", "golden", "-t1_01", "--tol", "1e-6"],
                ["run", "golden", "-1", "--tol", "1e-6"])


def dump() -> None:
    """Write every record of the imported tree to stdout, one JSON list per line."""
    import unisearch
    from unisearch import cli
    from unisearch.bench import VERIFY_INSET, all_cases
    from unisearch.core import Interval, Objective, StopRule
    from unisearch.oracle import brute_force_minimum
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
                grid = (Interval(iv.lo + inset, iv.hi - inset), points)
                write(["grid", name, points, _h(inset)], _grid(brute_force_minimum, grid))
                write(["oracle", "brute_force_minimum", name, points, _h(inset)],
                      _oracle(brute_force_minimum, fn, grid))

    for points in NONFINITE_POINTS:
        grid = (Interval(0.0, float(points - 1)), points)
        for label, fn in _nonfinite_scans(points):
            write(["oracle", "nonfinite", points, label],
                  _oracle(brute_force_minimum, fn, grid))

    floor_stops = ([StopRule(epsilon=e) for e in FLOOR_EPSILONS]
                   + [StopRule(budget=n) for n in FLOOR_BUDGETS])
    for c, lo, hi in FLOOR_CASES:
        for method in Method:
            for stop in floor_stops:
                write(["floor", _h(c), _h(lo), _h(hi), method.value, repr(stop)],
                      _solve(minimize, method, Objective(lambda x: (x - c) ** 2),
                             Interval(lo, hi), stop))

    for case in cases:
        for n in FIB_BUDGETS:
            write(["fibonacci", case.id, n],
                  _solve(minimize, Method.FIBONACCI, Objective(case.fn), case.interval,
                         StopRule(budget=n)))
        write(["fibonacci", case.id, "epsilon"],
              _solve(minimize, Method.FIBONACCI, Objective(case.fn), case.interval,
                     StopRule(epsilon=1e-6)))

    def int_bracket(method, hi, stop):
        try:
            iv = Interval(0, INT_HIS[hi])
        except Exception as e:     # a failure is part of the record
            return ["error", type(e).__name__, str(e)]
        return _solve(minimize, method, Objective(lambda x: (x - 0.3) ** 2), iv, stop)

    int_runs = [(method, hi, stop) for method in Method
                for hi, stop in (("1", StopRule(epsilon=1e-6)), ("1", StopRule(budget=20)),
                                 ("10**400", StopRule(budget=5)))]
    int_runs.append((Method.FIBONACCI, "1", StopRule(epsilon=1e-320)))
    for method, hi, stop in int_runs:
        write(["int", method.value, hi, repr(stop)], int_bracket(method, hi, stop))

    by_id = {case.id: case for case in cases}
    for case in map(by_id.get, NUMPY_CASES):
        for scalar in (np.float64, np.float32):
            iv = Interval(scalar(case.interval.lo), scalar(case.interval.hi))
            for method in Method:
                for stop in (StopRule(epsilon=1e-6), StopRule(budget=20)):
                    write(["numpy", case.id, scalar.__name__, method.value, repr(stop)],
                          _solve(minimize, method, Objective(case.fn), iv, stop))

    for case in map(by_id.get, NAN_CASES):
        for method in Method:
            for stop in (StopRule(epsilon=1e-6), StopRule(budget=20), StopRule(budget=21)):
                clean = minimize(method, Objective(case.fn), case.interval, stop)
                for k in range(1, clean.n_evals + 1):
                    write(["nan", case.id, method.value, repr(stop), k],
                          _solve(minimize, method, Objective(_nan_at(case.fn, k)),
                                 case.interval, stop))

    for case in map(by_id.get, NAN_CASES):
        for method in Method:
            write(["reuse", case.id, method.value],
                  _runs(minimize, method, Objective(case.fn), case.interval,
                        [StopRule(budget=20), StopRule(epsilon=1e-6)]))
            for stop in (StopRule(epsilon=1e-6), StopRule(budget=20)):
                for k in REUSE_NAN_AT:
                    write(["reuse", case.id, method.value, repr(stop), "nan", k],
                          _runs(minimize, method, Objective(_nan_at(case.fn, k)),
                                case.interval, [stop, stop]))


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
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early: send what is left to devnull, so that the
        # flush at exit does not raise again (the recipe of the signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
