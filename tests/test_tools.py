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
