"""Order statistics used for the reported timings."""
from __future__ import annotations

import math
import statistics

# A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, q: float, min_beyond: int = MIN_BEYOND) -> float | None:
    """Nearest-rank q-quantile (0 < q < 1), or None when fewer than
    `min_beyond` samples lie above its rank."""
    ordered = sorted(values)
    if not ordered:
        return None
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < min_beyond:
        return None
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values)


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
