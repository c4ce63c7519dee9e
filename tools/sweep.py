"""Run the randomized Hypothesis tests under fresh seeds and print what fails.

    python3 tools/sweep.py [--seeds N] [--first S] [-k EXPR] [PATH ...]

Each seed S, S+1, ..., S+N-1 runs one pytest process over PATH (default:
the repository's ``tests``) with ``--hypothesis-seed`` set to it, from a
fresh temporary working directory, so that each seed draws with an empty
example database and no seed replays another's failures.  The process runs
with ``--noconftest``: ``tests/conftest.py`` loads the derandomized profile
of tier-1, under which every test would draw the same examples whatever the
seed.  Only the tests that Hypothesis drives and that are not derandomized
by their own settings run; ``-k`` narrows them further, as in pytest.  N
defaults to 20, and S to a random seed, printed, so that a sweep can be
repeated.

Prints one line per seed, then every falsifying example with its seed and
test, and a failed test that gave none (an error in a fixture, say) with
its report.  Exits 1 when any test failed, 2 when a pytest run selected no
test or could not run, and 0 otherwise.  A failure reproduces with
``python3 -m pytest TEST --noconftest --hypothesis-seed=SEED`` from a
directory with no ``.hypothesis`` database.

The same file is the pytest plugin each run loads (``-p sweep``): it
deselects the other tests and appends one JSON line per failed test to the
file named by ``UNISEARCH_SWEEP_REPORT``.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_REPORT = "UNISEARCH_SWEEP_REPORT"


# -- the plugin, loaded inside each pytest run -------------------------------

def _randomized(item) -> bool:
    fn = getattr(item, "obj", None)
    settings = getattr(fn, "_hypothesis_internal_use_settings", None)
    return getattr(fn, "is_hypothesis_test", False) and not (settings and settings.derandomize)


def pytest_collection_modifyitems(config, items):
    keep, dropped = [], []
    for item in items:
        (keep if _randomized(item) else dropped).append(item)
    if dropped:
        config.hook.pytest_deselected(items=dropped)
    items[:] = keep


def _notes(exc) -> list[str]:
    notes = [n for n in getattr(exc, "__notes__", ()) if n.startswith("Falsifying")]
    for sub in getattr(exc, "exceptions", ()):   # several distinct bugs
        notes += _notes(sub)
    return notes


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    rep = yield
    if rep.failed:
        exc = call.excinfo   # None for a strict xfail that passed
        # the absolute path: PATH may lie outside the repository
        test = str(item.path) + item.nodeid[item.nodeid.index("::"):]
        with open(os.environ[_REPORT], "a", encoding="utf-8") as out:
            out.write(json.dumps({"test": test, "when": rep.when,
                                  "examples": _notes(exc.value) if exc else [],
                                  "error": exc.exconly() if exc else rep.longreprtext}) + "\n")
    return rep


# -- the sweep ---------------------------------------------------------------

def _run_seed(seed: int, paths: list[str], keyword: str | None) -> tuple[int, list[dict], str]:
    """One pytest run at ``seed`` from a fresh directory: its exit code, its
    failure records and its output."""
    with tempfile.TemporaryDirectory(prefix="sweep-") as tmp:
        report = os.path.join(tmp, "failures.jsonl")
        env = dict(os.environ, **{_REPORT: report})
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "tools"), str(ROOT / "src"), env.get("PYTHONPATH")]))
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "sweep", "-p", "no:cacheprovider",
               "--noconftest", f"--hypothesis-seed={seed}", "--rootdir", str(ROOT),
               "-c", str(ROOT / "pyproject.toml"), *paths]
        if keyword:
            cmd += ["-k", keyword]
        proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True)
        records = []
        if os.path.exists(report):
            with open(report, encoding="utf-8") as f:
                records = [json.loads(line) for line in f]
    return proc.returncode, records, proc.stdout + proc.stderr


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("paths", nargs="*", metavar="PATH",
                   help="test files or directories (default: tests)")
    p.add_argument("--seeds", type=int, default=20, metavar="N")
    p.add_argument("--first", type=int, metavar="S")
    p.add_argument("-k", dest="keyword", metavar="EXPR")
    args = p.parse_args(argv)
    if args.seeds < 1:
        p.error("--seeds must be at least 1")
    first = random.SystemRandom().randrange(2 ** 32) if args.first is None else args.first
    paths = [str(pathlib.Path(x).resolve()) for x in args.paths] or [str(ROOT / "tests")]

    failures, broken = [], False
    for seed in range(first, first + args.seeds):
        code, records, output = _run_seed(seed, paths, args.keyword)
        print(f"seed {seed}: {len(records)} failed", flush=True)
        failures += [(seed, rec) for rec in records]
        if code not in (0, 1) or (code == 1 and not records):
            print(f"seed {seed}: pytest exited {code}\n{output}", file=sys.stderr)
            broken = True
    for seed, rec in failures:
        print(f"\n{rec['test']} at --hypothesis-seed={seed}")
        print("\n".join(rec["examples"]) or f"no falsifying example ({rec['when']}): {rec['error']}")
    print(f"\n{len(failures)} failed over seeds {first}..{first + args.seeds - 1}")
    return 2 if broken else 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
