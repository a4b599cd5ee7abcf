import gc
import signal
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

try:
    from hypothesis import settings
except ImportError:  # the property tests skip without the ``test`` extra
    pass
else:
    # Tier-1 draws the same examples on every run of one tree: the default
    # profile derandomizes, and keeps no example database, so neither a
    # lucky draw nor a locally saved failure changes what a run tests.
    # ``pytest --hypothesis-profile=explore`` draws at random instead, with
    # the database, and with more examples where a test sets no count of
    # its own; a defect it finds goes in as an ``@example``.
    settings.register_profile("derandomized", derandomize=True, database=None)
    settings.register_profile("explore", derandomize=False, max_examples=500)
    settings.load_profile("derandomized")


class RunTooLong(Exception):
    pass


@contextmanager
def _cpu_time_limit(seconds):
    if sys.gettrace() is not None:
        # A line tracer (``scripts/reach.py``) slows every line several
        # times over, so under one no limit is armed; the test's other
        # assertions still run.
        yield
        return

    def expire(signum, frame):
        raise RunTooLong
    previous = signal.signal(signal.SIGPROF, expire)
    # A full collection of what earlier tests left alive can take longer
    # than a 50 ms body; frozen, those objects are not scanned in it.
    gc.freeze()
    signal.setitimer(signal.ITIMER_PROF, seconds)
    expired = False
    try:
        yield
    except RunTooLong:
        expired = True
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        gc.unfreeze()
        signal.signal(signal.SIGPROF, previous)
    if expired:
        # Failing here keeps the interrupted frames, whose tracebacks can
        # lack line numbers, out of the report.
        pytest.fail(f"run exceeded {seconds * 1000:.0f} ms of CPU time", pytrace=False)


@pytest.fixture
def cpu_time_limit():
    """``with cpu_time_limit(seconds):`` fails the test once the body has
    used more than ``seconds`` of this process's CPU time.  CPU time, not
    wall clock, so a loaded host does not fail the test; a body that
    waits on a subprocess would not be timed.  Objects alive when the
    body starts are kept out of the cyclic collector's scans until it
    ends (``gc.freeze``), so the body is charged only for its own work.
    Under a tracer (``sys.gettrace()`` is not None) no limit is armed."""
    return _cpu_time_limit


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
