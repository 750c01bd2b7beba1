"""Tier-1 settings shared by every test module.

Each test runs under a time bound, so a strategy that stops making progress
fails its tests instead of hanging the run: the step budget alone (100 000
steps by default) lets such a run go on for hours. The bound is a SIGALRM
timer, as no timeout plugin is installed.
"""

import signal

import pytest

# well above the slowest test (about 7 s on a 2-core x86-64 machine)
TEST_SECONDS = 60


class TestTimeout(BaseException):
    """A test ran past TEST_SECONDS. Not an Exception, so neither the code
    under test nor Hypothesis catches it: pytest reports the test failed."""


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    def expire(signum, frame):
        raise TestTimeout(f"{item.nodeid} ran past {TEST_SECONDS} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
