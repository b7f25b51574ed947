"""Order statistics the ledger reports (exact, nearest-rank)."""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def supports_percentile(n_samples: int, p: float) -> bool:
    """Whether ``n_samples`` leaves ``MIN_BEYOND`` samples above ``p``."""
    return n_samples * (1.0 - p / 100.0) >= MIN_BEYOND


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 if median is 0)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def grouped(values: Sequence[float], size: int) -> list[float]:
    """Medians of consecutive groups of ``size`` samples (a short last
    group joins the one before it)."""
    cuts = list(range(0, len(values), size))
    if len(cuts) > 1 and len(values) - cuts[-1] < size:
        cuts.pop()
    return [median(values[a:b]) for a, b in zip(cuts, cuts[1:] + [len(values)])]
