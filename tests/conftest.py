"""Shared fixtures."""

import contextlib
import signal

import pytest


@pytest.fixture(scope="session")
def deadline():
    """``with deadline(seconds):`` raises TimeoutError if the block runs longer.

    Guards calls that once looped forever, so a regression fails fast
    instead of hanging the suite.
    """

    @contextlib.contextmanager
    def within(seconds: int):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return within
