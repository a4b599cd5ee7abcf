"""Percentiles under the sample-count rule.

A percentile is reported only when at least ``BEYOND`` samples lie
above it, so p90 needs at least 100 samples.
"""

from __future__ import annotations

import math
import statistics

BEYOND = 10


def _rank(count: int, q: float) -> int:
    # The tolerance keeps float products such as 0.9 * 100 on their exact rank.
    return max(math.ceil(q * count - 1e-9), 1)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a
    share ``q`` of all samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), q) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank percentile q."""
    return count - _rank(count, q)


def min_samples(q: float, beyond: int = BEYOND) -> int:
    """Fewest samples for which the q percentile has ``beyond`` samples above it."""
    count = 1
    while samples_beyond(count, q) < beyond:
        count += 1
    return count



def median_of(passes) -> list:
    """Per op, the median of its values over equally long passes."""
    return [statistics.median(values) for values in zip(*passes, strict=True)]
