"""The suite's own harness: a failing property test is reported, not fatal."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import gpi_lab

TWO_TESTS = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_test_leaves_the_session_running(tmp_path):
    # Under -W error, hypothesis's report of the failing example once raised a
    # DeprecationWarning that ended the session in INTERNALERROR after
    # `1 failed`, so the passing test was never reported.
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    src = str(Path(gpi_lab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-W", "error", "-p", "no:cacheprovider"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
