"""The ``cpu_time_limit`` fixture times this process's CPU, not the wall
clock: a busy body past the limit fails, an idle one passes, and a
collection inside the body does not scan objects made before it.  Under
a tracer it arms no limit."""

import gc
import sys
import time
from contextlib import contextmanager

import pytest


@contextmanager
def _tracer(function):
    """Run the block with ``function`` as the trace function (None: none),
    then restore the one before it."""
    before = sys.gettrace()
    sys.settrace(function)
    try:
        yield
    finally:
        sys.settrace(before)


def _busy(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_a_busy_body_past_the_limit_fails(cpu_time_limit):
    with _tracer(None), pytest.raises(pytest.fail.Exception, match="50 ms of CPU time"):
        with cpu_time_limit(0.05):
            _busy(10)


def test_under_a_tracer_no_limit_is_armed(cpu_time_limit):
    with _tracer(lambda frame, event, arg: None):
        with cpu_time_limit(0.05):
            _busy(0.2)


def test_a_sleeping_body_past_the_limit_passes(cpu_time_limit):
    start = time.monotonic()
    with cpu_time_limit(0.05):
        time.sleep(0.2)
    assert time.monotonic() - start >= 0.2


def test_a_collection_in_the_body_skips_objects_made_before_it(cpu_time_limit):
    gc.disable()
    try:
        alive = [[] for _ in range(1_500_000)]  # a full scan takes about 0.1 s
    finally:
        gc.enable()
    with cpu_time_limit(0.05):
        gc.collect()
    assert len(alive) == 1_500_000
