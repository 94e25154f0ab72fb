"""The repo's pytest configuration must report a failing property test.

With filterwarnings = ["error"], a deprecation warning raised while
Hypothesis's plugin reports a failure used to become an INTERNALERROR that
stopped the whole run.  This runs pytest with the repo's configuration on one
failing Hypothesis test and one passing test.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, deadline=None, database=None)
@given(n=st.integers(0, 10))
def test_fails(n):
    assert n < 5


def test_passes():
    assert True
'''


def test_a_failing_property_test_does_not_stop_the_run(tmp_path):
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(probe)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "1 failed, 1 passed" in output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
