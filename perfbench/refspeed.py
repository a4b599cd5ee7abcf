"""The speed of the host, sampled while the ops run.

On a shared host the same Python code runs up to 1.6x slower for
seconds to minutes at a time, as other tenants come and go; a
benchmark that reports raw wall times then measures the host, not the
program.  So while a pass runs, a timer interrupts it every PERIOD_S
and times a small fixed reference task, run warm -- Bareiss
determinants over Z and over F_3[x] in the benchmark's own arithmetic
(certcheck.py), the same kind of interpreted integer and tuple
arithmetic koszulkit does.  Each op's time, less the time the samples
inside it took, is then reported at the reference machine's speed:

    scaled = measured * REFERENCE_S / (median reference time around it)

"Around" is from MARGIN_S before the op starts to MARGIN_S after it
ends.  REFERENCE_S is the reference task's time on the reference
machine in its fast phase (README.md), so a scaled time reads as
milliseconds there.  The task does not touch koszulkit, so no change to
the library can move it.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from array import array

import certcheck

# Median time of one reference_task() on the reference machine, in its
# fast phase (see README.md).
REFERENCE_S = 0.000145

PERIOD_S = 0.025
MARGIN_S = 0.25
# Fewest reference samples behind one speed; a window with fewer grows.
MIN_SAMPLES = 9

_Z = certcheck.IntArith()
_F3 = certcheck.PolyArith(3)
_rng = random.Random(1)
# Both matrices are nonsingular, so Bareiss runs every step.
_Z_MATRIX = [[_rng.randint(-9, 9) for _ in range(7)] for _ in range(7)]
_F3_MATRIX = [[_F3._trim([_rng.randrange(3) for _ in range(3)]) for _ in range(3)] for _ in range(3)]


def reference_task():
    return certcheck.det(_Z, _Z_MATRIX), certcheck.det(_F3, _F3_MATRIX)


def window_median(times, durations, start: float, end: float) -> float:
    """Median of the durations sampled within MARGIN_S of [start, end],
    widened to the MIN_SAMPLES nearest samples when there are fewer."""
    n = len(times)
    if n == 0:
        raise ValueError("no reference samples")
    lo = bisect.bisect_left(times, start - MARGIN_S)
    hi = bisect.bisect_right(times, end + MARGIN_S)
    while hi - lo < min(MIN_SAMPLES, n):
        lo, hi = max(lo - 1, 0), min(hi + 1, n)
    return statistics.median(durations[lo:hi])


class SpeedSampler:
    """Times the reference task every PERIOD_S of wall time, from a
    SIGALRM handler, while the ``with`` block runs."""

    def __init__(self):
        self.times = array("d")
        self.durations = array("d")
        # Wall time spent in the handler so far, for subtracting from
        # the ops it interrupted.
        self.overhead = 0.0
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        entered = time.perf_counter()
        # The first run brings the task back into the caches the op
        # evicted; only the second is timed, so the op's own cache
        # footprint does not set the speed it is scaled by.
        reference_task()
        start = time.perf_counter()
        reference_task()
        end = time.perf_counter()
        self.times.append(start)
        self.durations.append(end - start)
        self.overhead += time.perf_counter() - entered
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def scaled(self, duration: float, start: float, end: float) -> float:
        """``duration``, measured over [start, end], at the reference speed."""
        return duration * REFERENCE_S / window_median(self.times, self.durations, start, end)
