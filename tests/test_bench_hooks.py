"""The layered benchmark (polybench) wraps engine functions and methods by
name in every Ray worker; a renamed or moved name makes its traced runs
crash at startup.  Installing the wrappers in a fresh interpreter keeps
the patches out of this test process."""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_span_hooks_install(tmp_path):
    code = (
        "from polybench.spans import install, Recorder; "
        f"install(Recorder({str(tmp_path)!r}))"
    )
    res = subprocess.run(
        [sys.executable, "-c", code], cwd=REPO, capture_output=True, text=True, timeout=300
    )
    assert res.returncode == 0, res.stderr
