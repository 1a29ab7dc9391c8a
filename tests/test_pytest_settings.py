"""The suite's own pytest settings: one failing test must not end the run."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_leaves_the_rest_running(tmp_path):
    # The repository's pytest settings (filterwarnings = ["error"] included)
    # and conftest, around a failing @given test and a passing one after it.
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "tests").mkdir()
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path / "tests")
    (tmp_path / "tests" / "test_two.py").write_text(TWO_TESTS, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
