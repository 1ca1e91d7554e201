import signal

import pytest
from hypothesis import HealthCheck, settings

# Exact bigint arithmetic has high per-example variance; a wall-clock
# deadline turns slow-but-correct cases into flakes.
settings.register_profile(
    "exact",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")

# The slowest test takes a few seconds; a loop with no exit hangs for much longer.
TIME_LIMIT_S = 120


class TimeLimitExceeded(BaseException):
    """A test ran past TIME_LIMIT_S.  Not an `Exception`, so hypothesis
    does not take it for a failing example and shrink it: it ends the test."""


@pytest.fixture(autouse=True)
def _time_limit():
    """Fail a test that hangs at its own name, where setitimer exists."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expired(signum, frame):
        raise TimeLimitExceeded(f"the test ran past {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
