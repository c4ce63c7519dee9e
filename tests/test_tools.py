"""The maintenance tools under ``tools/``."""
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import bench_record  # noqa: E402
import parity  # noqa: E402


def test_loc_into_a_closed_pipe_prints_no_traceback():
    # the read end is closed before the tool starts, so its first write
    # meets a pipe with no reader, as under `| head -0`
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, str(ROOT / "tools" / "loc.py"), str(ROOT), str(ROOT)],
                              stdout=write, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write)
    assert proc.stderr == ""
    assert proc.returncode == 1


def _sweep(*args, cwd=None):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "sweep.py"), *map(str, args)],
                          capture_output=True, text=True, timeout=300, cwd=cwd)


def test_sweep_passes_a_quick_randomized_test():
    proc = _sweep("--seeds", 1, "--first", 1, ROOT / "tests" / "test_core.py",
                  "-k", "test_count_is_monotone")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "seed 1: 0 failed"


def test_sweep_reports_only_randomized_failures(tmp_path):
    # three failing tests; only the randomized Hypothesis one is swept
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, settings, strategies as st\n"
        "@given(st.integers())\n"
        "def test_small(n):\n"
        "    assert n < 10\n"
        "@given(st.integers())\n"
        "@settings(derandomize=True)\n"
        "def test_fixed(n):\n"
        "    assert n < 10\n"
        "def test_plain():\n"
        "    assert False\n")
    # a relative PATH names a file under the caller's directory, and each
    # seed's example database lives elsewhere
    proc = _sweep("--seeds", 2, "--first", 5, "test_fails.py", cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    out = proc.stdout
    assert out.count("Falsifying example: test_small(") == 2
    assert "test_fixed" not in out and "test_plain" not in out
    assert "test_fails.py::test_small at --hypothesis-seed=6" in out
    assert not (tmp_path / ".hypothesis").exists()


PARENT_SPEC = {"run_seconds": 99, "workloads": [{"name": "old_only"}],
               "end_to_end": [{"name": "ops_per_s", "better": "higher"}]}
TREE_SPEC = {"run_seconds": 7, "workloads": [{"name": "w1"}, {"name": "w2"}],
             "end_to_end": [{"name": "ops_per_s", "better": "higher"},
                            {"name": "op_ms", "better": "lower"}]}
# pair by pair: the change wins 7, ties 2 and loses the last one
PARENT_VALUES = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
CHANGE_VALUES = [2, 3, 4, 5, 6, 7, 8, 8, 9, 9]


class FakeBench:
    """Stands in for ``run_benchmark``: logs each call and answers the i-th
    untraced run of a side on a workload with that side's i-th value."""

    def __init__(self, parent, tree, incorrect=None):
        self.values = {str(parent): PARENT_VALUES, str(tree): CHANGE_VALUES}
        self.incorrect = incorrect
        self.calls = []

    def __call__(self, tree, workload, seconds, trace):
        self.calls.append((tree, workload, seconds, trace))
        i = sum(1 for t, w, _, tr in self.calls if (t, w, tr) == (tree, workload, 0)) - 1
        v = self.values[tree][i] if trace == 0 else 0.5
        return {"workload": workload, "trace": trace, "machine": "python x",
                "result": {"correct": (tree, workload, trace) != self.incorrect,
                           "attempted": 4, "failed": 1,
                           "metrics": {"ops_per_s": {"value": v}, "op_ms": {"value": v}}}}


@pytest.fixture
def trees(tmp_path, monkeypatch):
    parent, tree = tmp_path / "parent", tmp_path / "tree"
    for path, spec in ((parent, PARENT_SPEC), (tree, TREE_SPEC)):
        path.mkdir()
        (path / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(bench_record, "_commit",
                        lambda t: {"commit": os.path.basename(t), "dirty": t.endswith("tree")})
    return parent, tree, tmp_path / "out.json"


def _record(trees, monkeypatch, incorrect=None):
    parent, tree, out = trees
    fake = FakeBench(parent, tree, incorrect)
    monkeypatch.setattr(bench_record, "run_benchmark", fake)
    code = bench_record.main([str(parent), str(tree), str(out)])
    return code, fake.calls, json.loads(out.read_text())


def test_bench_record_alternates_ten_pairs_then_traces_each_side(trees, monkeypatch):
    parent, tree, _ = trees
    code, calls, _ = _record(trees, monkeypatch)
    assert code == 0
    expected = []
    for w in ("w1", "w2"):      # TREE's workloads and seconds, in file order
        for i in range(1, 11):
            order = (parent, tree) if i % 2 else (tree, parent)
            expected += [(str(t), w, 7, 0) for t in order]
        expected += [(str(parent), w, 7, 1), (str(tree), w, 7, 1)]
    assert calls == expected


def test_bench_record_writes_every_run_and_a_summary_per_workload(trees, monkeypatch):
    _, _, record = _record(trees, monkeypatch)
    assert list(record) == ["commit", "dirty", "parent", "seed", "seconds", "runs", "summary"]
    assert (record["commit"], record["dirty"]) == ("tree", True)
    assert record["parent"] == {"commit": "parent", "dirty": False}
    assert (record["seed"], record["seconds"]) == (1, 7)
    runs = record["runs"]
    assert len(runs) == 2 * (2 * 10 + 2)
    assert [(r["tree"], r["pair"], r["trace"]) for r in runs[:4]] == [
        ("parent", 1, 0), ("change", 1, 0), ("change", 2, 0), ("parent", 2, 0)]
    assert [(r["tree"], r["pair"], r["trace"]) for r in runs[20:22]] == [
        ("parent", None, 1), ("change", None, 1)]
    assert {r["workload"] for r in runs[:22]} == {"w1"}
    assert set(runs[0]) == {"tree", "pair", "workload", "trace", "machine", "result"}
    assert list(record["summary"]) == ["w1", "w2"]
    for summary in record["summary"].values():
        assert summary["pairs"] == 10
        assert list(summary["metrics"]) == ["ops_per_s", "op_ms"]


def test_bench_record_summary_counts_a_tie_for_neither_side(trees, monkeypatch):
    _, _, record = _record(trees, monkeypatch)
    higher, lower = (record["summary"]["w2"]["metrics"][m] for m in ("ops_per_s", "op_ms"))
    # the quartiles of 1..10 are 2.75, 5.5 and 8.25
    assert higher["old"] == {"min": 1, "q1": 2.75, "median": 5.5, "q3": 8.25, "max": 10}
    assert higher["new"]["median"] == 6.5
    assert higher["ratio"] == pytest.approx(6.5 / 5.5)
    assert higher["old_iqr"] == 5.5
    assert (higher["better"], higher["new_wins"]) == ("higher", 7)
    assert (lower["better"], lower["new_wins"]) == ("lower", 1)


def test_bench_record_prints_each_pair_and_the_table(trees, monkeypatch, capsys):
    _record(trees, monkeypatch)
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["w1 pair 1 (parent first)",
                       "  parent: ops_per_s=1  op_ms=1  failed 1/4",
                       "  change: ops_per_s=2  op_ms=2  failed 1/4"]
    assert out[3] == "w1 pair 2 (change first)"
    at = out.index("w2: 10 pairs of 7 s")
    assert out[at + 1].split() == ["metric", "better", "parent", "median", "change", "median",
                                   "ratio", "parent", "IQR", "wins"]
    assert out[at + 2].split() == ["ops_per_s", "higher", "5.5", "6.5", "1.182", "5.5", "7/10"]
    assert out[at + 3].split() == ["op_ms", "lower", "5.5", "6.5", "1.182", "5.5", "1/10"]


def test_bench_record_exits_1_when_a_run_is_incorrect(trees, monkeypatch, capsys):
    _, tree, _ = trees
    code, _, record = _record(trees, monkeypatch, incorrect=(str(tree), "w2", 1))
    assert code == 1
    assert [r["result"]["correct"] for r in record["runs"]].count(False) == 1
    out = capsys.readouterr().out.splitlines()
    at = out.index("w2 traced")
    assert out[at + 1:at + 3] == ["  parent: failed 1/4", "  change: failed 1/4  INCORRECT"]


def test_bench_record_stops_at_a_failed_run_and_writes_nothing(trees, monkeypatch):
    parent, tree, out = trees
    failed = subprocess.CompletedProcess([], 3, stdout="", stderr="Traceback: boom\n")
    monkeypatch.setattr(bench_record.subprocess, "run", lambda *a, **k: failed)
    with pytest.raises(SystemExit) as stop:
        bench_record.main([str(parent), str(tree), str(out)])
    assert "exited 3" in str(stop.value.code) and "Traceback: boom" in str(stop.value.code)
    assert not out.exists()


def test_bench_record_takes_no_option(trees):
    parent, tree, out = trees
    for argv in ([str(tree), str(out)],
                 [str(tree), str(out), "--parent", str(parent), "--claim", "w1"]):
        with pytest.raises(SystemExit) as stop:
            bench_record.main(argv)
        assert str(stop.value.code).startswith("usage: bench_record.py PARENT TREE OUT.json")
    assert not out.exists()


def _parity(monkeypatch, old, new):
    monkeypatch.setattr(parity, "_records", {"old": old, "new": new}.__getitem__)
    monkeypatch.setattr(sys, "argv", ["parity.py", "old", "new"])
    return parity.main()


RECORDS = [json.dumps([["cli", "run", "halving", "t1_01"], {"stdout": "x"}]),
           json.dumps([["cli", "table", "1"], {"stdout": "y"}]),
           json.dumps([["minimize", "golden", "t1_01"], {"x_min": "0x1p-1"}])]


def test_parity_passes_identical_records(monkeypatch, capsys):
    assert _parity(monkeypatch, RECORDS, list(RECORDS)) == 0
    assert capsys.readouterr().out == "0 of 3 records differ\n"


def test_parity_names_a_changed_record_and_its_kind(monkeypatch, capsys):
    changed = [RECORDS[0].replace('"x"', '"z"'), *RECORDS[1:]]
    assert _parity(monkeypatch, RECORDS, changed) == 1
    out = capsys.readouterr().out
    assert out.startswith("['cli', 'run', 'halving', 't1_01']\n")
    assert "cli run: 1 of 1 records differ\n" in out
    assert out.endswith("1 of 3 records differ\n")


def test_parity_fails_on_unequal_record_counts(monkeypatch, capsys):
    assert _parity(monkeypatch, RECORDS, RECORDS[:2]) == 1
    out = capsys.readouterr().out
    assert "record counts differ: 3 old, 2 new\n" in out
    assert out.endswith("0 of 2 records differ\n")
