"""Percentiles of latency samples."""

from __future__ import annotations

import math
from typing import Sequence

#: Percentiles a latency tail is reported at, lowest first.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)

#: A percentile is only reported when at least this many samples lie
#: beyond it, so one outlier cannot set it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``p`` % at or below."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail_percentile(count: int) -> float | None:
    """The highest of :data:`TAIL_PERCENTILES` with at least
    :data:`MIN_BEYOND` of ``count`` samples beyond it, or ``None``."""
    best = None
    for p in TAIL_PERCENTILES:
        if count * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            best = p
    return best
