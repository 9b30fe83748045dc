"""The test configuration that tier-1 runs under, from ``pyproject.toml``."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

THREE_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 0


def test_a_plain_failure():
    assert False


def test_a_plain_pass():
    pass
"""


def test_a_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    # to print a failure's patch hypothesis imports libcst, which raises a
    # DeprecationWarning; were that an error, the run would stop with an
    # INTERNALERROR after the first failure and the later tests never run
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_three.py").write_text(THREE_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "test_three.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "2 failed, 1 passed" in run.stdout, output
    assert "INTERNALERROR" not in output
