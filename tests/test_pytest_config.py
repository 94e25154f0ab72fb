"""The repo's pytest configuration must report a failing property test, and end a hung one.

With filterwarnings = ["error"], a deprecation warning raised while
Hypothesis's plugin reports a failure used to become an INTERNALERROR that
stopped the whole run.  This runs pytest with the repo's configuration on one
failing Hypothesis test and one passing test.  A test that never ends must end
the run with a traceback, through the time limit of tests/conftest.py.
"""

import re
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


HANGS = """
def test_passes():
    pass


def test_hangs():
    while True:
        pass
"""


def test_a_test_that_hangs_ends_the_run_with_a_traceback(tmp_path):
    conftest = (Path(__file__).resolve().parent / "conftest.py").read_text()
    assert "\nTIME_LIMIT_S = 60\n" in conftest
    (tmp_path / "conftest.py").write_text(conftest.replace("\nTIME_LIMIT_S = 60\n", "\nTIME_LIMIT_S = 1\n"))
    probe = tmp_path / "test_probe.py"
    probe.write_text(HANGS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(probe)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode != 0, proc.stdout + proc.stderr
    assert "Timeout (0:00:01)!" in proc.stderr
    assert re.search(rf'File "{re.escape(str(probe))}", line [78] in test_hangs', proc.stderr), proc.stderr
