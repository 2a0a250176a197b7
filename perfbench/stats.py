"""Order statistics over benchmark operations.

A failed or refused operation has no latency.  It is counted as slower
than every successful one, so failures push every percentile up instead
of silently shrinking the sample.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def percentile(latencies: Iterable[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``latencies``.

    Linear interpolation between order statistics (the ``inclusive``
    method of :func:`statistics.quantiles`).  A failed op's latency is
    ``math.inf``; the result is ``math.inf`` when the quantile lands on
    or past one.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile: q must lie in [0, 1], got {q}")
    values = sorted(latencies)
    if not values:
        raise ValueError("percentile: no operations")
    rank = q * (len(values) - 1)
    low, high = math.floor(rank), math.ceil(rank)
    if low == high or values[low] == values[high]:
        return values[low]
    if math.isinf(values[high]):
        return math.inf
    return values[low] + (values[high] - values[low]) * (rank - low)


# Most slices a window is cut into, and fewest ops per slice.
SLICES = 8
PER_SLICE = 8


def sliced_percentile(samples: Sequence[tuple[float, float]], q: float) -> float:
    """The ``q``-quantile within equal time slices of the window, averaged.

    ``samples`` are ``(completed_at, latency)`` pairs; a failed op has
    latency ``math.inf``.  The span from the first to the last
    completion is cut into up to ``SLICES`` slices, fewer when there
    are under ``PER_SLICE`` ops per slice, and each slice counts once.

    The 2-CPU reference host changes speed by up to 1.6x for tens of
    seconds at a time.  A quantile pooled over a whole run flips
    between the fast and the slow figure as the share of slow time
    crosses a threshold; averaged over slices it moves in proportion to
    that share, which keeps run-to-run spread down.
    """
    if not samples:
        raise ValueError("sliced_percentile: no operations")
    count = max(1, min(SLICES, len(samples) // PER_SLICE))
    first = min(done for done, _ in samples)
    width = (max(done for done, _ in samples) - first) / count or 1.0
    slices: list[list[float]] = [[] for _ in range(count)]
    for done, latency in samples:
        slices[min(count - 1, int((done - first) / width))].append(latency)
    values = [percentile(chunk, q) for chunk in slices if chunk]
    return sum(values) / len(values)


def median(values: Sequence[float]) -> float:
    """The median of a non-empty sequence."""
    return percentile(values, 0.5)
