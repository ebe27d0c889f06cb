"""The project's pytest settings: a failing property ends as a plain failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None)
@given(st.integers(min_value=0))
def test_deliberately_false(x):
    assert x < 0
"""


def test_a_failing_hypothesis_test_exits_1_not_internalerror(tmp_path):
    (tmp_path / "test_false.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path / "test_false.py")]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1
    assert "1 failed" in done.stdout
