"""The repository's pytest settings, run on a small suite in a subprocess."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

SUITE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 0


def test_after_it():
    pass
'''


def test_a_failing_property_does_not_stop_the_run(tmp_path):
    # under filterwarnings = error, a warning from hypothesis's report hook
    # used to end the session with INTERNALERROR before the second test ran
    shutil.copy(PYPROJECT, tmp_path)
    (tmp_path / "test_suite.py").write_text(SUITE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_suite.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout
