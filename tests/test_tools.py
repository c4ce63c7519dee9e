"""The maintenance tools under ``tools/``."""
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


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
