"""CLI contract: subcommands, exit codes, stdout/stderr separation."""
import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import tomllib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_bench import nan_cases
from test_solvers import count_calls

import unisearch.bench
import unisearch.cli as cli
from unisearch import core, solvers
from unisearch.bench import ReportRow, all_cases, find_case
from unisearch.bounds import accuracy_bound, iteration_bound
from unisearch.core import Interval, Objective, RunResult, StopRule, TraceEvent
from unisearch.solvers import Method, _trace_record, minimize


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        [],
        ["run"],
        ["run", "newton", "t1_01", "--tol", "0.1"],
        ["run", "halving", "t1_01"],                               # no stop rule
        ["run", "halving", "t1_01", "--tol", "0.1", "--budget", "5"],
        ["table"],
        ["table", "3"],
        ["bounds", "--tol", "0.1"],                                # missing length
        ["list", "--flag", "bogus"],
        ["verify", "--grid", "3"],
        ["verify", "--grid", "10001"],
        ["verify", "--grid", "x"],
    ])
    def test_argparse_rejects(self, argv):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2

    @pytest.mark.parametrize("tail,message", [
        (["--tol", "-0.1"], "epsilon must be positive and finite, got -0.1"),
        (["--tol", "inf"], "epsilon must be positive and finite, got inf"),
        (["--tol", "1e400"], "epsilon must be positive and finite, got inf"),
        (["--budget", "1"], "budget must be an integer >= 2, got 1"),
    ])
    def test_library_rejects_value(self, capsys, tail, message):
        # argparse parses the number; StopRule alone checks its value
        code_out_err = run_cli(capsys, "run", "halving", "t1_01", *tail)
        assert code_out_err == (2, "", f"error: {message}\n")

    def test_unknown_case_id(self, capsys):
        code, out, err = run_cli(capsys, "run", "halving", "t1_99", "--tol", "0.1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_fibonacci_epsilon_beyond_largest_budget(self, capsys):
        code, out, err = run_cli(capsys, "run", "fibonacci", "t1_01", "--tol", "1e-320")
        assert code == 2
        assert out == ""
        assert err.startswith("error: no Fibonacci budget reaches epsilon=1e-320")
        assert err.endswith(": F(N + 1) leaves float64 first\n")

    @pytest.mark.parametrize("argv", [
        ["bounds", "--length", "1e308", "--tol", "1e-308"],
        ["bounds", "--length", "1", "--budget", "100000"],
        ["bounds", "--length", "1e-300", "--budget", "2000"],
    ])
    def test_overflowing_bounds_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


# numbers as a shell passes them: the edges of each check, and drawn floats
# and ints; "-inf" and a negative exponent form would read as an option
_EDGES = ("0", "-0.0", "-0.1", "-1", "nan", "inf", "1e400", "1", "2")
_NUMBERS = (st.sampled_from(_EDGES) | st.floats(min_value=0.0).map(repr)
            | st.integers(0, 200).map(str))
_BUDGETS = st.sampled_from(("0", "-1", "1", "2")) | st.integers(-200, 200).map(str)


def _rejects(check, *args) -> Exception | None:
    try:
        check(*args)
    except ValueError as e:
        return e
    return None


def _main(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


class TestOneValueCheck:
    """A number that parses is checked once, by the library: the CLI exits 2
    with the library's one line exactly when its check raises."""

    @staticmethod
    def agrees(argv, error):
        code, out, err = _main(argv)
        if error is None:
            assert (code, err) == (0, "")
        else:
            assert (code, out, err) == (2, "", f"error: {error}\n")

    @given(_NUMBERS)
    @settings(deadline=None)
    def test_run_tol(self, v):
        self.agrees(["run", "golden", "t1_01", "--tol", v],
                    _rejects(StopRule, float(v), None))

    @given(_BUDGETS)
    @settings(deadline=None)
    def test_run_budget(self, v):
        self.agrees(["run", "golden", "t1_01", "--budget", v],
                    _rejects(StopRule, None, int(v)))

    @given(_NUMBERS, _NUMBERS)
    @settings(deadline=None)
    def test_bounds_tol(self, length, tol):
        # halving is printed first, and trichotomy takes every input it takes
        self.agrees(["bounds", "--length", length, "--tol", tol],
                    _rejects(iteration_bound, Method.HALVING, float(length), float(tol)))

    @given(_NUMBERS, _BUDGETS)
    @settings(deadline=None)
    def test_bounds_budget(self, length, n):
        self.agrees(["bounds", "--length", length, "--budget", n],
                    _rejects(accuracy_bound, Method.HALVING, float(length), int(n)))


class TestParserContract:
    """Every build_parser() caller gets a parser of its own, and no parse,
    usage error or --help changes what a later call prints."""

    SEQUENCE = (
        ["run", "golden", "t1_01", "--tol", "1e-6", "--trace", "--format", "json"],
        ["run", "golden", "t1_01"],                                # argparse exit 2
        ["--help"],                                                # exit 0
        ["run", "fibonacci", "t1_01", "--tol", "1e-320"],          # library error
        ["table", "1", "--format", "csv"],
    )

    def test_each_call_gets_its_own_parser(self):
        first = cli.build_parser()
        first.parse_args = lambda argv=None: None      # as a tracer wraps it
        later = cli.build_parser()
        assert later is not first
        assert later.parse_args.__func__ is type(later).parse_args

    def test_repeated_commands_print_the_same(self, capsys):
        def run(argv):
            try:
                code = cli.main(list(argv))
            except SystemExit as e:
                code = e.code
            captured = capsys.readouterr()
            return captured.out, captured.err, code

        first = [run(argv) for argv in self.SEQUENCE]
        assert [code for _, _, code in first] == [0, 2, 0, 2, 0]
        assert [run(argv) for argv in self.SEQUENCE] == first


_GOOD_VALUES = {"--tol": ("1e-6", "0.5", "1_0", " 3"), "--budget": ("20", "2"),
                "--format": cli._FORMATS}
_NEAR_MISSES = ("--tol", "--budget", "--trace", "--format", "--tol=1e-6", "--format=json",
                "--tr", "--form", "--", "-", "-1", "-t1_01", "--help", "-h", "--quiet",
                "nan", "inf", "1e400", "1", "0", "-0.5", "", "newton", "golden", "json")


@st.composite
def _run_argvs(draw):
    """A well-formed `run` argv, its options in any order (the fast path takes
    only the usage line's: stop rule, `--trace`, `--format`), bent by up to
    three near misses: a token inserted, replaced or dropped (a missing
    value, both stop flags or neither), one more option with a value (a
    repeated flag) or the positionals moved behind the options."""
    stop = draw(st.sampled_from(["--tol", "--budget"]))
    options = [[stop, draw(st.sampled_from(_GOOD_VALUES[stop]))]]
    if draw(st.booleans()):
        options.append(["--trace"])
    if draw(st.booleans()):
        options.append(["--format", draw(st.sampled_from(cli._FORMATS))])
    argv = ["run", draw(st.sampled_from([m.value for m in Method])),
            draw(st.sampled_from(["t1_01", "t2_03", "t1_99"])),
            *sum(draw(st.permutations(options)), [])]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(("insert", "replace", "drop", "option", "lead")))
        if edit == "insert":
            argv.insert(at, draw(st.sampled_from(_NEAR_MISSES)))
        elif edit == "option":
            flag = draw(st.sampled_from(list(_GOOD_VALUES)))
            value = st.sampled_from(_GOOD_VALUES[flag]) | st.sampled_from(_NEAR_MISSES)
            argv[at:at] = [flag, draw(value)]
        elif edit == "lead":
            argv = [argv[0], *argv[3:], *argv[1:3]]
        elif at < len(argv):
            argv[at:at + 1] = [draw(st.sampled_from(_NEAR_MISSES))] if edit == "replace" else []
    return argv


class TestRunFastPath:
    """`cli._parse_run` returns argparse's namespace for a `run` command in
    its usage line's order, `run METHOD CASE`, then `--tol V` or `--budget
    N`, then an optional `--trace`, then an optional `--format F`, and None
    for every other argv: each one argparse rejects or answers with help, and
    the forms argparse takes outside that order (the options permuted,
    `--tol=V`, abbreviations, repeated flags, options before the
    positionals)."""

    @given(_run_argvs())
    @settings(max_examples=1000, deadline=None)
    def test_namespace_or_none(self, argv):
        fast = cli._parse_run(argv)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                expected = cli.build_parser().parse_args(argv)
        except SystemExit:
            assert fast is None
        else:
            # repr, since NaN != NaN: both parsers take `--tol nan`
            assert fast is None or repr(fast) == repr(expected)

    @pytest.mark.parametrize("method", [m.value for m in Method])
    def test_takes_every_well_formed_command(self, method):
        # the usage-line order parses here; every other order of the same
        # options goes through argparse and prints the same bytes
        for stop, trace, fmt in itertools.product(
                (["--tol", "1e-6"], ["--budget", "20"]), ([], ["--trace"]),
                ([], *(["--format", f] for f in cli._FORMATS))):
            canonical = ["run", method, "t1_01", *stop, *trace, *fmt]
            assert cli._parse_run(canonical) == cli.build_parser().parse_args(canonical)
            want = _main(canonical)
            for options in itertools.permutations([stop, trace, fmt]):
                argv = ["run", method, "t1_01", *itertools.chain(*options)]
                if argv != canonical:       # moving an empty option changes nothing
                    assert cli._parse_run(argv) is None
                    assert _main(argv) == want

    @pytest.mark.parametrize("tail", [
        ["--tol=1e-6"], ["--tol", "1e-6", "--tr"], ["--tol", "1e-6", "--form", "json"],
        ["--tol", "nan", "--tol", "1e-6"], ["--tol", "1e-6", "--trace", "--trace"],
        ["--budget", "20", "--format", "csv", "--format", "json"],
        ["--tol", "1e-6", "--budget", "20"], ["--trace"], ["--", "--tol", "1e-6"],
        ["--tol", "-1"], ["--tol"], ["--budget", "20", "--format"],
        ["--tol", "1e-6", "--help"], ["--tol", "abc"], ["--budget", "2.5"], ["--budget", "1e3"],
    ])
    def test_refuses_near_misses(self, tail):
        for argv in (["run", "golden", "t1_01", *tail], ["run", *tail, "golden", "t1_01"],
                     ["run", "golden", "-t1_01", *tail]):
            assert cli._parse_run(argv) is None

    @pytest.mark.parametrize("tail", [["--tol", "inf"], ["--tol", "1e400"], ["--budget", "1"]])
    def test_takes_values_the_library_rejects(self, tail):
        argv = ["run", "golden", "t1_01", *tail]
        assert cli._parse_run(argv) == cli.build_parser().parse_args(argv)

    def test_main_skips_the_parser(self, capsys, monkeypatch):
        argv = ["run", "golden", "t1_01", "--tol", "1e-6", "--trace", "--format", "json"]
        expected = run_cli(capsys, *argv)
        monkeypatch.setattr(cli, "build_parser", None)     # a call would raise
        assert run_cli(capsys, *argv) == expected
        monkeypatch.setattr(cli.sys, "argv", ["unisearch", *argv])
        assert cli.main() == 0
        assert capsys.readouterr().out == expected[1]


class TestList:
    def test_counts(self, capsys):
        for argv, expected in (
            (("list",), 23),
            (("list", "--table", "1"), 20),
            (("list", "--table", "2"), 3),
            (("list", "--flag", "endpoint"), 3),
            (("list", "--flag", "garbled"), 1),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 0
            assert len(out.splitlines()) == expected

    def test_row_contents(self, capsys):
        _, out, _ = run_cli(capsys, "list", "--flag", "garbled")
        assert out.startswith("t1_20")
        assert "[garbled]" in out

    def test_table2_bytes(self, capsys):
        code, out, err = run_cli(capsys, "list", "--table", "2")
        assert code == 0
        assert err == ""
        assert out == (
            "t2_01  (x - 1.1)^2  on [0, 2]  budgets=10,20,30  x*=1.1\n"
            "t2_02  -5x^2*exp(-0.5x)  on [1, 6]  budgets=10,20,30  x*=4\n"
            "t2_03  cos(x)  on [2, 4]  budgets=10,20,30  x*=3.14159\n"
        )


class TestRun:
    def test_markdown_fields(self, capsys):
        code, out, err = run_cli(capsys, "run", "trichotomy", "t1_02",
                                 "--tol", "1e-6")
        assert code == 0
        assert "n_evals: 31" in out
        assert "method: trichotomy" in out
        x_min = float(next(l for l in out.splitlines()
                           if l.startswith("x_min:")).split()[1])
        assert abs(x_min - 1.3572088082974534) < 1e-6

    def test_trace_rows(self, capsys):
        # halving on [0.5, 2]: lengths 1.5 (start), 0.75, 0.375
        code, out, _ = run_cli(capsys, "run", "halving", "t1_02",
                               "--tol", "0.2", "--trace")
        assert code == 0
        lines = [l.strip() for l in out.splitlines()]
        assert "0: [0.5, 2.0] len=1.5 evals=0" in lines
        trace_lines = [l for l in lines if l and l[0].isdigit()]
        assert "len=0.75" in trace_lines[1]
        assert "len=0.375" in trace_lines[2]

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "run", "golden", "t1_01",
                               "--budget", "12", "--format", "json", "--trace")
        assert code == 0
        payload = json.loads(out)
        assert payload["case"] == "t1_01"
        assert payload["n_evals"] == 12
        assert len(payload["trace"]) == payload["n_iters"]
        assert sum(ev["evals"] for ev in payload["trace"]) == 12

    def test_csv_payload(self, capsys):
        code, out, _ = run_cli(capsys, "run", "trichotomy", "t1_02",
                               "--tol", "1e-6", "--format", "csv")
        assert code == 0
        header, row = out.splitlines()
        assert header == "case,method,x_min,f_min,n_evals,n_iters,final_lo,final_hi"
        assert row.startswith("t1_02,trichotomy,")
        assert row.split(",")[4] == "31"

    def test_csv_has_no_trace(self, capsys):
        # a csv row cannot carry the trace, so asking for both is refused
        code, out, err = run_cli(capsys, "run", "trichotomy", "t1_02",
                                 "--tol", "1e-6", "--format", "csv", "--trace")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_fibonacci_minimal_budget(self, capsys):
        code, out, _ = run_cli(capsys, "run", "fibonacci", "t1_01", "--budget", "2")
        assert code == 0
        assert "n_evals: 2" in out

    def test_fibonacci_tol_runs_the_planned_budget(self, capsys):
        # t1_01 is 0.5 wide: 27 evaluations reach 0.5/F(28) <= 1e-6
        fmt = ("--trace", "--format", "json")
        code, by_tol, _ = run_cli(capsys, "run", "fibonacci", "t1_01", "--tol", "1e-6", *fmt)
        assert code == 0
        assert json.loads(by_tol)["n_evals"] == 27
        assert run_cli(capsys, "run", "fibonacci", "t1_01", "--budget", "27", *fmt) == (0, by_tol, "")

    def test_nonfinite_objective_fails_with_3(self, capsys, monkeypatch):
        broken = dataclasses.replace(find_case("t1_01"), fn=lambda x: math.nan)
        monkeypatch.setattr(cli, "find_case", lambda _: broken)
        code, out, err = run_cli(capsys, "run", "halving", "t1_01", "--tol", "0.1")
        assert code == 3
        assert out == ""
        assert err.startswith("run failed:")


def _registry_run(case, method):
    """The run that `run METHOD CASE` makes with --budget 20 for fibonacci
    and --tol 1e-6 for the other methods, and that command's stop flags."""
    if method is Method.FIBONACCI:
        stop, flags = StopRule(budget=20), ("--budget", "20")
    else:
        stop, flags = StopRule(epsilon=1e-6), ("--tol", "1e-6")
    return minimize(method, Objective(case.fn), case.interval, stop), flags


def _floor_run(case, method):
    """As `_registry_run`, at the float64 floor: --budget 200 for fibonacci
    and --tol 1e-300 for the other methods, where most bracket ends repeat
    probe points."""
    if method is Method.FIBONACCI:
        stop, flags = StopRule(budget=200), ("--budget", "200")
    else:
        stop, flags = StopRule(epsilon=1e-300), ("--tol", "1e-300")
    return minimize(method, Objective(case.fn), case.interval, stop), flags


def _reference_payload(case, method, res, with_trace):
    """What `run --format json` prints, as json.dumps(indent=2) input."""
    payload = {
        "case": case.id,
        "method": method.value,
        "x_min": res.x_min,
        "f_min": res.f_min,
        "n_evals": res.n_evals,
        "n_iters": res.n_iters,
        "final_lo": res.final_interval.lo,
        "final_hi": res.final_interval.hi,
    }
    if with_trace:
        payload["trace"] = [
            {
                "iter": ev.iteration,
                "lo": ev.interval_after.lo,
                "hi": ev.interval_after.hi,
                "length": ev.interval_after.length(),
                "evals": ev.evals_this_iter,
                "probes": [[x, fx] for x, fx in ev.probes],
            }
            for ev in res.trace
        ]
    return payload


def _reference_markdown(case, method, res, with_trace):
    """What `run` prints in markdown, built field by field with str()."""
    iv, fin = case.interval, res.final_interval
    lines = [f"case: {case.id}  ({case.label} on [{iv.lo:g}, {iv.hi:g}])",
             f"method: {method.value}", f"x_min: {res.x_min}", f"f_min: {res.f_min}",
             f"n_evals: {res.n_evals}", f"n_iters: {res.n_iters}",
             f"final_interval: [{fin.lo}, {fin.hi}]"]
    if with_trace:
        lines += ["trace:", f"  0: [{iv.lo}, {iv.hi}] len={iv.length()} evals=0"]
    for ev in res.trace if with_trace else ():
        after = ev.interval_after
        probes = " ".join(f"{x}:{fx}" for x, fx in ev.probes)
        lines.append(f"  {ev.iteration}: [{after.lo}, {after.hi}] len={after.length()} "
                     f"evals={ev.evals_this_iter} probes={probes}")
    return "\n".join(lines) + "\n"


def _event_record(trace, iv):
    """The run record ``(log, marks)`` of built trace events from the input
    bracket ``iv``, as ``solvers._trace_record`` reads it from a pending
    trace: mark 0 is ``iv``, then one mark per event."""
    log, marks = [], [(iv.lo, iv.hi, 0)]
    for ev in trace:
        log += ev.probes
        marks.append((ev.interval_after.lo, ev.interval_after.hi, len(log)))
    return log, marks


# floats where float.__repr__ is easy to get wrong: signed zero, the least
# subnormal, the largest finite value, and both sides of the switches to
# exponent form at 1e16 and 1e-4
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308,
                9999999999999998.0, 1e16, 1.0000000000000002e16,
                0.0001, 9.999999999999999e-05, 1e-05, 1.0, 0.1)
_FLOATS = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),   # subnormals
    st.floats(1e15, 1e17), st.floats(-1e17, -1e15),
    st.floats(1e-6, 1e-4), st.floats(-1e-4, -1e-6),
)
_LEAVES = _FLOATS | _FLOATS.map(np.float64)


@st.composite
def _run_results(draw):
    """RunResults whose bracket ends are mostly probe points of the run:
    probes, their values and brackets draw from one small pool, which often
    holds both 0.0 and -0.0 and the same value as float and np.float64.  As
    in every run record, the events are numbered 1, 2, ... and each one's
    ``evals_this_iter`` is its number of probes.

    A pair of pool values is drawn as one index into the pool's pairs, and
    an event's probes as one list of such indices: Hypothesis spends its
    time per draw, so a draw per value would cost most of the test."""
    pool = draw(st.lists(_LEAVES, min_size=1, max_size=8))
    pool += draw(st.sampled_from([[], [0.0, -0.0], [np.float64(-0.0), 0.0]]))
    pool += [np.float64(v) for v in draw(st.lists(st.sampled_from(pool), max_size=2))]
    k = len(pool)
    pairs = st.integers(0, k * k - 1)

    def pair(i):
        return pool[i // k], pool[i % k]

    def bracket():
        lo, hi = sorted(pair(draw(pairs)), key=float)
        if not 0.0 < float(hi) - float(lo) < math.inf:
            # equal ends, or a length that overflows: a one-ulp bracket at lo
            hi = math.nextafter(float(lo), math.inf)
            if hi == math.inf:
                lo, hi = math.nextafter(float(lo), -math.inf), lo
        return Interval(lo, hi)

    def event(iteration):
        probes = tuple(map(pair, draw(st.lists(pairs, min_size=1, max_size=8))))
        return TraceEvent(iteration, bracket(), len(probes), probes)

    trace = tuple(event(i) for i in range(1, draw(st.integers(1, 40)) + 1))
    return RunResult(draw(st.sampled_from(pool)), draw(_LEAVES), draw(st.integers(0, 10**6)),
                     draw(st.integers(0, 10**6)), bracket(), trace)


class TestRunJson:
    """`run --format json` prints exactly the bytes of
    json.dumps(payload, indent=2), with or without the trace."""

    @pytest.mark.parametrize("method", list(Method), ids=str)
    @pytest.mark.parametrize("case", all_cases(), ids=lambda c: c.id)
    def test_registry_bytes(self, capsys, case, method):
        for run in (_registry_run, _floor_run):
            res, flags = run(case, method)
            for trace in (False, True):
                argv = ["run", method.value, case.id, *flags, "--format", "json"]
                code, out, err = run_cli(capsys, *argv, *(["--trace"] if trace else []))
                assert (code, err) == (0, "")
                want = json.dumps(_reference_payload(case, method, res, trace), indent=2)
                assert out == want + "\n"
        # every float of the trace (out is the traced floor run's) reads back bit for bit
        bits = lambda v: float(v).hex()
        got = [(ev["lo"], ev["hi"], ev["probes"]) for ev in json.loads(out)["trace"]]
        want = [(ev.interval_after.lo, ev.interval_after.hi, ev.probes) for ev in res.trace]
        assert len(got) == len(want)
        for (lo, hi, probes), (lo0, hi0, probes0) in zip(got, want):
            assert (bits(lo), bits(hi)) == (bits(lo0), bits(hi0))
            assert [[bits(x), bits(fx)] for x, fx in probes] == \
                   [[bits(x), bits(fx)] for x, fx in probes0]

    @given(_run_results(), st.text(max_size=8), st.sampled_from(list(Method)))
    @settings(max_examples=300, deadline=None)
    def test_renderer_matches_json(self, res, case_id, method):
        case = dataclasses.replace(find_case("t1_01"), id=case_id)
        head, record = cli._head(case, method, res), _event_record(res.trace, case.interval)
        for trace in (False, True):
            want = json.dumps(_reference_payload(case, method, res, trace), indent=2)
            assert cli._run_json(head, record if trace else None) == want

    @staticmethod
    def _json(trace):
        """``run --format json`` of a run whose trace is ``trace``, checked
        against ``json.dumps``, as a payload."""
        res = RunResult(0.0, 2.0, 2, len(trace), trace[-1].interval_after, trace)
        case, method = find_case("t1_01"), Method.HALVING
        out = cli._run_json(cli._head(case, method, res), _event_record(trace, case.interval))
        assert out == json.dumps(_reference_payload(case, method, res, True), indent=2)
        return json.loads(out)

    def test_signed_zero_is_converted_fresh(self):
        # a bracket end equal to an earlier probe of the other sign of zero
        # prints its own sign
        trace = (TraceEvent(1, Interval(0.0, 0.5), 1, ((-0.0, 1.0),)),
                 TraceEvent(2, Interval(-0.0, 0.25), 1, ((0.0, 2.0),)))
        out = self._json(trace)
        assert [math.copysign(1.0, ev["lo"]) for ev in out["trace"]] == [1.0, -1.0]

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_signed_zero_of_a_later_probe(self, zero):
        # a bracket end that is a zero, with the other zero a probe of a
        # later event, prints its own sign
        trace = (TraceEvent(1, Interval(-zero, 0.5), 1, ((0.25, 1.0),)),
                 TraceEvent(2, Interval(-zero, 0.1), 2, ((zero, 2.0), (0.05, 3.0))))
        out = self._json(trace)
        assert [math.copysign(1.0, ev["lo"]) for ev in out["trace"]] == \
               [math.copysign(1.0, -zero)] * 2

    def test_bracket_end_is_a_later_probe(self):
        # the first event's ends are probes of the second only, one of them as
        # an np.float64: they print as a fresh conversion would
        lo, hi = 0.1 + 0.2, 1 / 3
        trace = (TraceEvent(1, Interval(lo, hi), 1, ((0.31, 1.0),)),
                 TraceEvent(2, Interval(lo, 0.32), 2, ((np.float64(hi), 2.0), (lo, 3.0))))
        out = self._json(trace)
        assert (out["trace"][0]["lo"], out["trace"][0]["hi"]) == (lo, hi)

    @pytest.mark.parametrize("method", list(Method), ids=str)
    def test_float64_bracket(self, method):
        # a record of np.float64 probes and bracket ends prints as the run's
        # own floats do; Interval makes every bracket Python floats, so such
        # a record is built by hand from a run's
        case = find_case("t1_02")
        res = minimize(method, Objective(case.fn), case.interval, StopRule(budget=20))
        log, marks = _trace_record(res)
        f64 = np.float64
        record = ([(f64(x), f64(fx)) for x, fx in log],
                  [(f64(lo), f64(hi), end) for lo, hi, end in marks])
        out = cli._run_json(cli._head(case, method, res), record)
        assert out == json.dumps(_reference_payload(case, method, res, True), indent=2)

    def test_every_event_pays_a_probe(self):
        # the templates print no empty list: a registry run has at least one
        # event and every event at least one probe
        for case in all_cases():
            for method in Method:
                stops = [StopRule(budget=n) for n in (2, 3, 20, 100)]
                if method is not Method.FIBONACCI:
                    stops += [StopRule(epsilon=e) for e in (1e-2, 1e-6, 1e-12)]
                for stop in stops:
                    res = minimize(method, Objective(case.fn), case.interval, stop)
                    assert res.trace
                    assert all(ev.evals_this_iter >= 1 for ev in res.trace)


class TestRunMarkdown:
    @pytest.mark.parametrize("method", list(Method), ids=str)
    @pytest.mark.parametrize("case", all_cases(), ids=lambda c: c.id)
    def test_registry_bytes(self, capsys, case, method):
        for run in (_registry_run, _floor_run):
            res, flags = run(case, method)
            for trace in (False, True):
                argv = ["run", method.value, case.id, *flags, *(["--trace"] if trace else [])]
                code, out, err = run_cli(capsys, *argv)
                assert (code, err) == (0, "")
                assert out == _reference_markdown(case, method, res, trace)


def _markdown(case, method, res):
    """What `run METHOD CASE --trace` prints when its run returns ``res``."""
    out = io.StringIO()
    with mock.patch.object(cli, "minimize", lambda *args: res), contextlib.redirect_stdout(out):
        assert cli.main(["run", method.value, case.id, "--budget", "2", "--trace"]) == 0
    return out.getvalue()


class TestTraceRows:
    """`run --trace` renders a pending trace from the run's record: the record
    is the one the built events give, and it renders the same bytes."""

    @given(st.sampled_from(all_cases()), st.sampled_from(list(Method)),
           st.sampled_from([1e-2, 1e-6, 1e-12, 1e-300]).map(lambda e: StopRule(epsilon=e))
           | st.integers(2, 300).map(lambda n: StopRule(budget=n)))
    @settings(max_examples=300, deadline=None)
    def test_record_and_trace_agree(self, case, method, stop):
        res = minimize(method, Objective(case.fn), case.interval, stop)
        record, head = _trace_record(res), cli._head(case, method, res)
        text, markdown = cli._run_json(head, record), _markdown(case, method, res)
        assert isinstance(core._get_trace(res), solvers._Run)     # still pending
        assert len(res.trace) == res.n_iters
        built = _event_record(res.trace, case.interval)
        assert built == record
        assert cli._run_json(head, built) == text
        assert cli._run_markdown(case, head, built) + "\n" == markdown
        assert text == json.dumps(_reference_payload(case, method, res, True), indent=2)
        assert markdown == _reference_markdown(case, method, res, True)


class TestRunBuildsNoTrace:
    """`run --trace` builds one event, the last, which the run builds for its
    final interval: the traced benchmark divides by these calls."""

    @pytest.mark.parametrize("run", [_registry_run, _floor_run])
    @pytest.mark.parametrize("fmt", ["json", "markdown"])
    @pytest.mark.parametrize("method", list(Method), ids=str)
    def test_one_event(self, monkeypatch, capsys, method, fmt, run):
        case = find_case("t1_02")
        res, flags = run(case, method)
        want = (json.dumps(_reference_payload(case, method, res, True), indent=2) + "\n"
                if fmt == "json" else _reference_markdown(case, method, res, True))
        events = count_calls(monkeypatch, solvers, "TraceEvent")
        intervals = count_calls(monkeypatch, solvers, "Interval")
        evaluations = count_calls(monkeypatch, Objective, "evaluate")
        code, out, err = run_cli(capsys, "run", method.value, case.id, *flags, "--trace",
                                 "--format", fmt)
        assert (code, out, err) == (0, want, "")
        assert len(events) == len(intervals) == 1
        assert len(evaluations) == res.n_evals
        assert res.n_iters > 1


class TestTable:
    def test_table1_csv_deterministic(self, capsys):
        code1, out1, err1 = run_cli(capsys, "table", "1", "--format", "csv")
        code2, out2, _ = run_cli(capsys, "table", "1", "--format", "csv")
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.splitlines()[0] == unisearch.bench.CSV_HEADER
        assert len(out1.splitlines()) == 61
        assert err1 == "PASS: 57/57 comparisons within tolerance (3 excluded)\n"

    def test_table2_passes(self, capsys):
        code, out, err = run_cli(capsys, "table", "2", "--quiet")
        assert code == 0
        assert err == ""
        assert len(out.splitlines()) == 29    # header + separator + 27 rows

    def test_out_redirects_stdout(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out, _ = run_cli(capsys, "table", "2", "--format", "csv",
                               "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().splitlines()[0] == unisearch.bench.CSV_HEADER

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "table", "2", "--out",
                                 str(tmp_path / "missing" / "x.csv"))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_failing_comparison_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(unisearch.bench, "TABLE1_COUNT_TOLERANCE", -1)
        code, out, err = run_cli(capsys, "table", "1", "--format", "csv")
        assert code == 3
        assert "FAIL" in err

    def test_nonfinite_value_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(unisearch.bench, "_TABLE1", nan_cases())
        code, out, err = run_cli(capsys, "table", "1", "--format", "csv")
        assert code == 3
        assert len(out.splitlines()) == 7
        assert err == "FAIL: 0/3 comparisons within tolerance (3 excluded)\n"

    def test_table2_summary_line(self, capsys):
        code, _, err = run_cli(capsys, "table", "2", "--format", "csv")
        assert code == 0
        assert err == "PASS: 27/27 comparisons within tolerance\n"

    def test_verdict_ignores_ungated_rows(self, capsys, monkeypatch):
        rows = (
            ReportRow("a", Method.HALVING, None, 10, 10, True, 0),
            ReportRow("b", Method.HALVING, None, 11, None, None, None),
        )
        monkeypatch.setattr(cli, "run_table1", lambda: rows)
        code, _, err = run_cli(capsys, "table", "1", "--format", "csv")
        assert code == 0
        assert err == "PASS: 1/1 comparisons within tolerance (1 excluded)\n"

        failed = ReportRow("c", Method.HALVING, None, 15, 10, False, 5)
        monkeypatch.setattr(cli, "run_table1", lambda: rows + (failed,))
        code, _, err = run_cli(capsys, "table", "1", "--format", "csv")
        assert code == 3
        assert err == "FAIL: 1/2 comparisons within tolerance (1 excluded)\n"


class TestBounds:
    def test_iteration_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--length", "1", "--tol", "0.1")
        assert code == 0
        assert out.splitlines() == [
            "halving: k_formula=3 k_exact=3",
            "trichotomy: k_formula=2 k_exact=2",
        ]

    def test_accuracy_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--length", "2", "--budget", "10")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "halving: accuracy_bound=0.044194173824159216"
        assert lines[1].startswith("trichotomy: accuracy_bound=0.0844261872946214")

    def test_accuracy_bound_from_one_evaluation(self, capsys):
        # accuracy_bound is defined from n = 1, where it is length/2
        assert run_cli(capsys, "bounds", "--length", "2", "--budget", "1") == (
            0, "halving: accuracy_bound=1.0\ntrichotomy: accuracy_bound=1.0\n", "")

    def test_domain_error_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--length", "1", "--tol", "0.6")
        assert code == 2
        assert err.startswith("error:")


class TestVerify:
    def test_default_grid(self, capsys):
        code, out, err = run_cli(capsys, "verify")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 110
        assert all(line.endswith(" ok") for line in lines)
        assert err == "PASS: 110/110 within 1.000e-04\n"

    def test_quiet_prints_same_stdout_and_no_summary(self, capsys):
        _, loud, _ = run_cli(capsys, "verify")
        code, out, err = run_cli(capsys, "verify", "--quiet")
        assert code == 0
        assert out == loud
        assert err == ""

    def test_disagreement_exits_3(self, capsys, monkeypatch):
        bad = ReportRow("t1_01", Method.HALVING, None, 1.0, 2.0, False, -1.0)
        monkeypatch.setattr(cli, "run_verify", lambda: [bad])
        code, out, err = run_cli(capsys, "verify")
        assert code == 3
        assert out.splitlines()[0].endswith(" FAIL")
        assert "FAIL: 0/1" in err


@pytest.mark.skipif(shutil.which("unisearch") is None,
                    reason="console script not on PATH")
def test_console_script_smoke():
    proc = subprocess.run(["unisearch", "list", "--table", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 3


def test_console_script_entry_without_install():
    # the `unisearch` script that an install creates calls unisearch.cli:entry;
    # make that call from the source tree
    root = pathlib.Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["scripts"]["unisearch"] == "unisearch.cli:entry"
    env = {**os.environ, "PYTHONPATH": str(root / "src")}

    def entry(*argv):
        return subprocess.run([sys.executable, "-c", "from unisearch.cli import entry; entry()",
                               *argv], capture_output=True, text=True, env=env)

    proc = entry("list", "--table", "2")
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 3
    proc = entry("run", "halving", "t1_01")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: unisearch run")
