import signal
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


class RunTooLong(Exception):
    pass


@contextmanager
def _wall_clock_limit(seconds):
    def expire(signum, frame):
        raise RunTooLong
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    expired = False
    try:
        yield
    except RunTooLong:
        expired = True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if expired:
        # Failing here keeps the interrupted frames, whose tracebacks can
        # lack line numbers, out of the report.
        pytest.fail(f"run exceeded {seconds * 1000:.0f} ms", pytrace=False)


@pytest.fixture
def wall_clock_limit():
    """``with wall_clock_limit(seconds):`` fails the test once the body
    runs longer than ``seconds`` of wall-clock time."""
    return _wall_clock_limit


@pytest.fixture
def call_log(monkeypatch):
    """``call_log(owner, name)`` wraps ``owner.name`` for the rest of the
    test and returns the list of argument tuples of its calls, so a test
    can assert the work its claim is about (no ``factor`` call, one
    primality test) whatever the host's speed."""
    def watch(owner, name):
        original = getattr(owner, name)
        log = []

        def logged(*args, **kwargs):
            log.append(args)
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, logged)
        return log
    return watch
