"""Summary statistics shared by the workloads and the compare tool."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them.

    A single value is its own quartiles (no spread is measurable).
    """
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else math.inf


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank of the ``pct`` percentile of ``n`` samples."""
    # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in floats.
    return max(1, math.ceil(round(pct / 100.0 * n, 9)))


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """The ``pct`` percentile of an ascending sample (nearest rank)."""
    return sorted_values[_rank(pct, len(sorted_values)) - 1]


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least :data:`MIN_BEYOND` samples
    beyond it; 100 (the maximum) when even the median has fewer."""
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= MIN_BEYOND:
            return pct
    return 100.0


def latency_summary(seconds: Sequence[float]) -> dict:
    """Median and rule-chosen tail of a latency sample, in milliseconds."""
    ordered = sorted(seconds)
    pct = tail_percentile(len(ordered))
    return {"n": len(ordered),
            "p50_ms": 1e3 * nearest_rank(ordered, 50.0),
            "tail_pct": pct,
            "tail_ms": 1e3 * nearest_rank(ordered, pct)}
