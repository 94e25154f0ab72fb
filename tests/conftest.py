"""Tier-1's per-test time limit.

A test that runs longer than TIME_LIMIT_S seconds ends the whole run, after faulthandler
has written the traceback of every thread to the terminal, instead of hanging it.  The
slowest test takes about 1.5 s.
"""

import faulthandler
import os

import pytest

TIME_LIMIT_S = 60
TERMINAL = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[TERMINAL] = os.dup(2)  # stderr as it is here, before pytest captures a test's output


def pytest_unconfigure(config):
    os.close(config.stash[TERMINAL])


@pytest.fixture(autouse=True)
def time_limit(pytestconfig):
    faulthandler.dump_traceback_later(TIME_LIMIT_S, exit=True, file=pytestconfig.stash[TERMINAL])
    yield
    faulthandler.cancel_dump_traceback_later()
