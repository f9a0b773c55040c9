"""Fixed-bucket latency histograms and the nearest-rank percentile.

A :class:`Histogram` keeps a bounded number of bucket counts instead of
every sample, so million-record replays can report latency percentiles
without an O(records) list. The buckets are one fixed 1–2.5–5 decade
ladder (:data:`LATENCY_BUCKETS_MS`, 10 µs to 500 s);
:meth:`Histogram.percentile` interpolates linearly inside the bucket
that contains the requested rank, which is accurate to a bucket's width
(at most ~2.5x resolution at any scale — plenty for p50/p95/p99
reporting). :func:`nearest_rank` is the exact statistic over a sorted
sample list, for callers that keep every sample.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Sequence, Tuple

#: Latency bucket upper bounds in ms: 1–2.5–5 ladder, 10 µs to 500 s.
LATENCY_BUCKETS_MS: Tuple[float, ...] = tuple(
    mult * 10.0 ** exp
    for exp in range(-2, 6)  # 0.01 ms .. 500_000 ms
    for mult in (1.0, 2.5, 5.0)
)


def nearest_rank(ordered: Sequence[float], pct: float) -> float:
    """Exact nearest-rank percentile of a sorted list (0 when empty)."""
    if not ordered:
        return 0.0
    rank = max(1, int(round(pct / 100.0 * len(ordered))))
    return ordered[min(rank, len(ordered)) - 1]


class Histogram:
    """Fixed-bucket histogram with min/max/sum and percentile estimates.

    The bucket upper bounds are :data:`LATENCY_BUCKETS_MS`; one
    implicit overflow bucket catches samples above the last bound.
    """

    __slots__ = ("counts", "count", "sum", "min", "max")

    def __init__(self) -> None:
        self.counts = [0] * (len(LATENCY_BUCKETS_MS) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.counts[bisect_left(LATENCY_BUCKETS_MS, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Mean of all observed samples (0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def percentile(self, percentile: float) -> float:
        """Estimated percentile (0 < percentile <= 100; 0 when empty).

        Follows :func:`nearest_rank`'s convention at bucket
        granularity: the bucket containing the rank is found, then the
        value is interpolated linearly between the bucket's bounds. The
        overflow bucket reports ``max``.
        """
        if not 0.0 < percentile <= 100.0:
            raise ValueError(f"percentile must be in (0, 100], got {percentile}")
        if not self.count:
            return 0.0
        bounds = LATENCY_BUCKETS_MS
        rank = max(1, int(round(percentile / 100.0 * self.count)))
        cumulative = 0
        for i, n in enumerate(self.counts):
            if not n:
                continue
            if cumulative + n >= rank:
                if i >= len(bounds):  # overflow bucket
                    return self.max
                lo = bounds[i - 1] if i > 0 else min(self.min, bounds[i])
                hi = bounds[i]
                lo = max(lo, self.min)
                hi = min(hi, self.max) if self.max >= lo else hi
                fraction = (rank - cumulative) / n
                return lo + (hi - lo) * fraction
            cumulative += n
        return self.max  # pragma: no cover - defensive

    @property
    def p50(self) -> float:
        """Median estimate."""
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        """95th-percentile estimate."""
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        """99th-percentile estimate."""
        return self.percentile(99.0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self.counts == other.counts
            and self.count == other.count
            and self.sum == other.sum
            and (self.min == other.min or (self.count == 0 and other.count == 0))
            and (self.max == other.max or (self.count == 0 and other.count == 0))
        )
