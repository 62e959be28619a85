"""Latency recording with averages and percentiles.

:class:`LatencyRecorder` keeps every sample exactly, packed in one
``array("d")`` (NaN is refused).  Percentiles use linear interpolation over
the sorted samples, which is what the committed figure tables were produced
with; runs of ``_RUN`` samples are sorted one at a time and ``heapq.merge``-d,
``sorted()``'s order exactly, with no float object held per sample.
:func:`nearest_rank_p99` is the other percentile rule the tables use, for
harnesses that keep plain sample lists.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Iterable, List, Optional

_RUN = 1024  # samples a percentile's sort holds as floats at a time


class LatencyRecorder:
    """Collects latency samples (milliseconds) and summarizes them exactly."""

    __slots__ = ("name", "_samples", "_sorted")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._samples = array("d")
        self._sorted: Optional[array] = None

    def record(self, latency_ms: float) -> None:
        if not latency_ms >= 0:
            raise ValueError(f"negative or NaN latency: {latency_ms}")
        self._samples.append(latency_ms)
        self._sorted = None

    def extend(self, latencies: Iterable[float]) -> None:
        """Bulk-record: one validation pass, one append, one invalidation."""
        values = array("d", latencies)
        if not all(value >= 0 for value in values):
            raise ValueError("negative or NaN latency")
        self._samples.extend(values)
        self._sorted = None

    def merge(self, other: "LatencyRecorder") -> None:
        self._samples.extend(other._samples)
        self._sorted = None

    # -- summaries ---------------------------------------------------------
    @property
    def count(self) -> int:
        return len(self._samples)

    def samples(self) -> List[float]:
        """The exact recorded samples (escape hatch for exact statistics)."""
        return self._samples.tolist()

    def mean(self) -> float:
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    def minimum(self) -> float:
        return min(self._samples) if self._samples else 0.0

    def maximum(self) -> float:
        return max(self._samples) if self._samples else 0.0

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0 < p <= 100) using linear interpolation."""
        if not self._samples:
            return 0.0
        if not 0 < p <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
        if self._sorted is None:
            runs = [array("d", sorted(self._samples[start:start + _RUN]))
                    for start in range(0, self.count, _RUN)]
            self._sorted = array("d", heapq.merge(*runs))
        data = self._sorted
        rank = (p / 100.0) * (len(data) - 1)
        low = int(rank)
        fraction = rank - low
        if not fraction:
            return data[low]
        return data[low] + (data[low + 1] - data[low]) * fraction

    def p50(self) -> float:
        return self.percentile(50)

    def p99(self) -> float:
        return self.percentile(99)

    def summary(self) -> dict:
        """Mean / p50 / p99 / min / max / count in one dictionary."""
        return {
            "name": self.name,
            "count": self.count,
            "mean_ms": self.mean(),
            "p50_ms": self.p50(),
            "p99_ms": self.p99(),
            "min_ms": self.minimum(),
            "max_ms": self.maximum(),
        }


def nearest_rank_p99(values: List[float]) -> float:
    """The nearest-rank 99th percentile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = max(0, int(len(ordered) * 0.99 + 0.999999) - 1)
    return ordered[min(index, len(ordered) - 1)]
