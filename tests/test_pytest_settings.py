"""The repository's pytest settings, checked on a throwaway test run in a
subprocess."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    """Warnings are errors, yet a failing @given test exits 1 and prints
    its falsifying example rather than ending pytest in INTERNALERROR."""
    probe = tmp_path / "test_probe.py"
    probe.write_text("from hypothesis import given, strategies as st\n\n\n"
                     "@given(st.integers())\n"
                     "def test_probe(n):\n"
                     "    assert n < 10\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", str(probe)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example: test_probe(" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
