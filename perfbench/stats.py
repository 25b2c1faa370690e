"""Order statistics the benchmark reports."""

from __future__ import annotations

import statistics


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float, int] | None:
    """Highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value, count)``: ``value`` is the sorted sample
    with exactly ten samples above it, and ``percentile`` is the highest
    nearest-rank percentile that selects it, 100 * (count - 10) / count.
    ``None`` when there are fewer than 11 samples.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count < 11:
        return None
    return 100.0 * (count - 10) / count, float(ordered[count - 11]), count


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
