"""`python -m singdet` runs the CLI without installing the package."""

import contextlib
import io
import os
import subprocess
import sys

from singdet.cli import main

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
ENTRY = os.path.join(SRC, "singdet", "corpus", "4_1.txt")


def test_python_m_singdet_prints_what_main_prints():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    args = ["invariants", ENTRY, "--format", "machine"]
    proc = subprocess.run([sys.executable, "-m", "singdet", *args],
                          capture_output=True, text=True, env=env, timeout=120)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(args) == 0
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out.getvalue()
