"""The ``cpu_time_limit`` fixture times this process's CPU, not the wall
clock: a busy body past the limit fails, an idle one passes, and a
collection inside the body does not scan objects made before it."""

import gc
import time

import pytest


def test_a_busy_body_past_the_limit_fails(cpu_time_limit):
    with pytest.raises(pytest.fail.Exception, match="50 ms of CPU time"):
        with cpu_time_limit(0.05):
            while True:
                pass


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
