"""Command-line interface.

Subcommands: list, run, table, bounds, verify.  Exit codes are exactly 0
(success), 2 (usage error), and 3 (run or comparison failure).  Identical
invocations produce identical bytes on stdout; human summaries go to stderr
and are suppressed by --quiet.

``verify`` checks acceptance criterion 7: every solver against the grid
oracle at its default 10^6+1 points, each row passing within 1e-4.  Another
grid goes through ``brute_force_minimum`` with a bracket and a point count of
its own.

Argparse checks an argument's form: a choice, and a number that ``float`` or
``int`` can parse; a malformed one ends in its usage message.  A number's
value is checked once, by the library call it reaches (:class:`StopRule`
for ``run``, ``iteration_bound`` and ``accuracy_bound`` for ``bounds``),
which computes with the Python float or int parsed, unchanged.  Every other
error is mapped to an exit code in one place, :func:`main`: a non-finite
objective value is a failed run (3, ``run failed: ...``); an unknown case
id, a value the library rejects (``ValueError``: a ``--tol`` that is not
finite and positive, a ``run`` budget below 2, a ``--tol`` whose Fibonacci
plan would pass float64's Fibonacci numbers and one whose dichotomous offset
underflows), ``run --trace --format csv`` (a csv row has no trace) or an
``--out`` path that cannot be written is a usage error (2, ``error: ...``).

A ``run`` command in the order of its usage line skips argparse: exactly
``run METHOD CASE``, then ``--tol V`` or ``--budget N``, then an optional
``--trace``, then an optional ``--format F``, with METHOD and F among their
choices and no CASE or value starting with ``-`` (:func:`_parse_run`).  Its
namespace is the one argparse gives, field for field.  Every other form (the
same options in another order, ``--tol=V``, an abbreviation, ``--``, an
option before the positionals, a repeated flag, ``--help``) and every argv
argparse rejects goes through argparse, with the same output bytes and exit
codes.
"""
from __future__ import annotations

import argparse
import copy
import functools
import json
import sys
from itertools import chain, pairwise

from .bench import (
    FLAG_ENDPOINT_MIN,
    FLAG_GARBLED,
    TABLE2_BUDGETS,
    VERIFY_AGREEMENT,
    emit_report,
    find_case,
    all_cases,
    registry_table1,
    registry_table2,
    run_table1,
    run_table2,
    run_verify,
)
from .bounds import _SHRINK, accuracy_bound, iteration_bound
from .core import NonFiniteValue, Objective, StopRule
from .solvers import Method, _trace_record, minimize

_FORMATS = ("markdown", "csv", "json")
_METHODS = tuple(m.value for m in Method)


def build_parser() -> argparse.ArgumentParser:
    """Return a parser of its own for one caller.

    It is a shallow copy of one parser that is built on first use and then
    kept for the life of the process, so in-process callers pay for the
    construction once; a shell invocation builds it once, as before.  The
    copy shares its arguments and subparsers with every other copy.
    Rebinding an attribute of the copy (``parser.parse_args = ...``) stays
    with that copy, but adding arguments or defaults to it would reach every
    later call.  Parsing, its usage errors and ``--help`` keep their state
    in the namespace and in locals, so they never change the shared parser.

    :func:`main` calls it for every command but a ``run`` command in its
    usage line's order, which :func:`_parse_run` parses without it; every
    other ``run`` form comes here and prints the same bytes.
    """
    return copy.copy(_parser())


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unisearch",
        description="Derivative-free 1-D minimization by interval bracketing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list benchmark cases")
    p_list.add_argument("--table", choices=("1", "2"), help="restrict to one registry")
    p_list.add_argument("--flag", choices=("endpoint", "garbled"),
                        help="restrict to flagged cases")
    p_list.set_defaults(handler=cmd_list)

    p_run = sub.add_parser("run", help="run one method on one registry case")
    p_run.add_argument("method", choices=_METHODS)
    p_run.add_argument("case_id", metavar="case")
    g = p_run.add_mutually_exclusive_group(required=True)
    g.add_argument("--tol", type=float, help="half-width target")
    g.add_argument("--budget", type=int, help="evaluation budget")
    p_run.add_argument("--trace", action="store_true", help="include per-iteration trace")
    p_run.add_argument("--format", choices=_FORMATS, default="markdown")
    p_run.set_defaults(handler=cmd_run)

    p_table = sub.add_parser("table", help="run a benchmark table against its references")
    p_table.add_argument("table", choices=("1", "2"))
    p_table.add_argument("--format", choices=_FORMATS, default="markdown")
    p_table.add_argument("--out", help="write the report to this path instead of stdout")
    p_table.add_argument("--quiet", action="store_true", help="suppress the summary line")
    p_table.set_defaults(handler=cmd_table)

    p_bounds = sub.add_parser("bounds", help="print worst-case bounds")
    p_bounds.add_argument("--length", type=float, required=True)
    g = p_bounds.add_mutually_exclusive_group(required=True)
    g.add_argument("--tol", type=float, help="half-width target")
    g.add_argument("--budget", type=int, help="evaluation budget")
    p_bounds.set_defaults(handler=cmd_bounds)

    p_verify = sub.add_parser("verify", help="check every solver against the grid oracle")
    p_verify.add_argument("--quiet", action="store_true", help="suppress the summary line")
    p_verify.set_defaults(handler=cmd_verify)

    return parser


def _parse_run(argv: list[str]) -> argparse.Namespace | None:
    """The namespace ``build_parser().parse_args(argv)`` returns for a
    ``run`` command in its usage line's order (see the module docstring), or
    None for every other argv, including each one argparse would reject or
    answer with help.  A value is converted by ``float`` or ``int``, as
    argparse does, and one they cannot parse gives None, so argparse reports
    it."""
    if (len(argv) < 5 or argv[0] != "run" or argv[1] not in _METHODS
            or argv[2].startswith("-") or argv[3] not in ("--tol", "--budget")
            or argv[4].startswith("-")):
        return None
    trace = argv[5:6] == ["--trace"]
    rest = argv[5 + trace:]
    if rest and (len(rest) != 2 or rest[0] != "--format" or rest[1] not in _FORMATS):
        return None
    try:
        value = float(argv[4]) if argv[3] == "--tol" else int(argv[4])
    except ValueError:
        return None
    tol, budget = (value, None) if argv[3] == "--tol" else (None, value)
    return argparse.Namespace(command="run", method=argv[1], case_id=argv[2], tol=tol,
                              budget=budget, trace=trace,
                              format=rest[1] if rest else "markdown", handler=cmd_run)


def cmd_list(args) -> int:
    cases = {"1": registry_table1, "2": registry_table2}.get(args.table, all_cases)()
    if args.flag:
        flag = {"endpoint": FLAG_ENDPOINT_MIN, "garbled": FLAG_GARBLED}[args.flag]
        cases = [c for c in cases if flag in c.flags]
    for c in cases:
        stop = f"tol={c.tol:g}" if c.tol is not None else f"budgets={','.join(map(str, TABLE2_BUDGETS))}"
        flags = f"  [{','.join(sorted(c.flags))}]" if c.flags else ""
        print(f"{c.id}  {c.label}  on [{c.interval.lo:g}, {c.interval.hi:g}]  {stop}  "
              f"x*={c.x_star:.6g}{flags}")
    return 0


# The head fields of `run`, in the order every format prints them.
_HEAD = ("case", "method", "x_min", "f_min", "n_evals", "n_iters", "final_lo", "final_hi")


def _head(case, method, res) -> tuple:
    """The values of the :data:`_HEAD` fields for the run ``res``.  The
    method is kept as given, a :class:`Method` or its value: a ``Method`` is a
    ``StrEnum``, so json, ``str`` and ``format`` all print it as its value."""
    iv = res.final_interval
    return case.id, method, res.x_min, res.f_min, res.n_evals, res.n_iters, iv.lo, iv.hi


def _event_texts(record):
    """Yield, for each event of a run's record ``(log, marks)`` as
    :func:`~unisearch.solvers._trace_record` reads it, mark 0 the input
    bracket and then one mark per event, the values that fill the event
    templates, ``(iter, lo, hi, length, evals, x1, fx1, ..., xk, fxk)``,
    with every float as its ``float.__repr__`` text.  Event i runs from mark
    i-1 to mark i.  ``evals`` is the event's number of probes, so it picks
    the template.

    That is what json prints for a float, and what ``str`` prints for a
    Python float; ``repr`` of a NumPy 2 scalar is not.  The whole probe log
    is converted in one pass.  Most bracket ends are probe points of the
    run, so ``lo``/``hi`` look up the text of an equal probe ``x``.  Equal
    nonzero float64 values have the same bits, so a hit prints what a
    conversion would; the zero key is dropped, as ``0.0 == -0.0`` but they
    print apart.
    """
    r = float.__repr__
    log, marks = record
    flat = list(map(r, chain.from_iterable(log)))
    seen = dict(zip([x for x, _ in log], flat[::2]))
    seen.pop(0.0, None)
    for i, ((_, _, start), (lo, hi, end)) in enumerate(pairwise(marks), 1):
        yield (i, seen.get(lo) or r(lo), seen.get(hi) or r(hi), r(hi - lo), end - start,
               *flat[2 * start:2 * end])


# `run --format json` in the layout of json.dumps(indent=2): one template for
# the head and one per trace event with k [x, f(x)] probes, each the
# json.dumps of a payload of None values with every null made a %s.  Their
# whole domain: every float is finite (Interval rejects non-finite endpoints,
# Objective raises NonFiniteValue), so float.__repr__ prints what json prints;
# and a run has at least one event and every event at least one probe, so no
# list is empty, which json would print as [].
def _json_template(payload) -> str:
    return json.dumps(payload, indent=2).replace("null", "%s")


_HEAD_JSON = _json_template(dict.fromkeys(_HEAD))[:-2]     # left open for the trace


@functools.cache
def _event_json(k: int) -> str:
    """The json template of a trace event with ``k`` probes, indented as an
    item of the run's ``trace`` list."""
    event = {**dict.fromkeys(("iter", "lo", "hi", "length", "evals")),
             "probes": [[None, None]] * k}
    return "    " + _json_template(event).replace("\n", "\n    ")


def _event_markdown(k: int) -> str:
    """The markdown trace line of an event with ``k`` probes."""
    return "  %d: [%s, %s] len=%s evals=%d probes=" + " ".join(["%s:%s"] * k)


def _run_json(head: tuple, record) -> str:
    """Return ``json.dumps(payload, indent=2)`` of a run, byte for byte.

    ``payload`` is the :data:`_HEAD` fields with the values ``head`` and,
    unless ``record`` is None, the trace events of the run record of
    :func:`~unisearch.solvers._trace_record`.  Both are filled into
    templates that ``json.dumps`` laid out once (:data:`_HEAD_JSON`,
    :func:`_event_json`), one ``%`` per event, so the pure-Python
    ``indent=2`` encoder never runs on a run.  Strings go through
    ``json.dumps``, floats through ``float.__repr__`` (:func:`_event_texts`
    for the events) and ints through ``%s``.
    """
    r = float.__repr__
    case, method, x, f, n_evals, n_iters, lo, hi = head
    text = _HEAD_JSON % (json.dumps(case), json.dumps(method), r(x), r(f), n_evals, n_iters,
                         r(lo), r(hi))
    if record is None:
        return text + "\n}"
    events = ",\n".join([_event_json(v[4]) % v for v in _event_texts(record)])
    return f'{text},\n  "trace": [\n{events}\n  ]\n}}'


def _run_markdown(case, head: tuple, record) -> str:
    """What ``run`` prints in markdown for ``head`` and, unless ``record`` is
    None, the trace of that run record; every float prints as ``str`` does."""
    iv = case.interval
    lines = [f"case: {case.id}  ({case.label} on [{iv.lo:g}, {iv.hi:g}])"]
    lines += [f"{key}: {value}" for key, value in zip(_HEAD[1:6], head[1:6])]
    lines.append(f"final_interval: [{head[6]}, {head[7]}]")
    if record is not None:
        lines += ["trace:", f"  0: [{iv.lo}, {iv.hi}] len={iv.length()} evals=0"]
        lines += [_event_markdown(v[4]) % v for v in _event_texts(record)]
    return "\n".join(lines)


def cmd_run(args) -> int:
    if args.trace and args.format == "csv":
        raise ValueError("--trace has no csv form; use --format json or markdown")
    case = find_case(args.case_id)
    res = minimize(args.method, Objective(case.fn), case.interval, StopRule(args.tol, args.budget))
    head = _head(case, args.method, res)
    record = _trace_record(res) if args.trace else None
    if args.format == "json":
        print(_run_json(head, record))
    elif args.format == "csv":
        # str(float) == repr(float): a csv row carries every digit
        print(",".join(_HEAD))
        print(",".join(map(str, head)))
    else:
        print(_run_markdown(case, head, record))
    return 0


def _verdict(args, rows, what: str) -> int:
    """Print ``PASS|FAIL: passed/gated what`` to stderr unless ``--quiet``,
    noting the rows excluded from pass/fail (``passed`` None); return 0 when
    every gated row passed and 3 otherwise."""
    gated = [r.passed for r in rows if r.passed is not None]
    excluded = len(rows) - len(gated)
    ok = all(gated)
    if not args.quiet:
        note = f" ({excluded} excluded)" if excluded else ""
        print(f"{'PASS' if ok else 'FAIL'}: {sum(gated)}/{len(gated)} {what}{note}", file=sys.stderr)
    return 0 if ok else 3


def cmd_table(args) -> int:
    rows = run_table1() if args.table == "1" else run_table2()
    text = emit_report(rows, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return _verdict(args, rows, "comparisons within tolerance")


def cmd_bounds(args) -> int:
    for method in _SHRINK:
        if args.tol is not None:
            b = iteration_bound(method, args.length, args.tol)
            print(f"{method.value}: k_formula={b.k_formula} k_exact={b.k_exact}")
        else:
            bound = accuracy_bound(method, args.length, args.budget)
            print(f"{method.value}: accuracy_bound={bound!r}")
    return 0


def cmd_verify(args) -> int:
    rows = run_verify()
    for r in rows:
        print(f"{r.case} {r.method.value}: x={r.measured!r} oracle={r.expected!r} "
              f"diff={abs(r.deviation):.3e} {'ok' if r.passed else 'FAIL'}")
    return _verdict(args, rows, f"within {VERIFY_AGREEMENT:.3e}")


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_run(argv) or build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except NonFiniteValue as e:
        # a ValueError subclass, but a failed run, not a usage error
        print(f"run failed: {e}", file=sys.stderr)
        return 3
    except (KeyError, ValueError, OSError) as e:
        # a KeyError's str() quotes its message
        message = e.args[0] if isinstance(e, KeyError) else e
        print(f"error: {message}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
