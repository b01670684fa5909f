"""Order statistics the harness reports: percentiles, how many samples lie
beyond one, and the run-to-run spread ``compare.py`` judges by."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(sorted_samples: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (``0 <= q <= 1``) of *sorted* samples."""
    if not sorted_samples:
        raise ValueError("percentile of no samples")
    position = q * (len(sorted_samples) - 1)
    low = math.floor(position)
    high = min(low + 1, len(sorted_samples) - 1)
    weight = position - low
    return sorted_samples[low] * (1.0 - weight) + sorted_samples[high] * weight


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the ``q``-quantile."""
    return count - 1 - math.floor(q * (count - 1)) if count else 0


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median.

    Uses ``statistics.quantiles(values, n=4)`` so the figure matches the one
    the acceptance check computes; a single value has no spread.
    """
    if len(values) < 2:
        return 0.0
    first, _second, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return abs(third - first) / abs(median) if median else math.inf
