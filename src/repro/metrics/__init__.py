"""Measurement utilities shared by tests, examples, and benchmark harnesses."""

from repro.metrics.latency import LatencyRecorder
from repro.metrics.bandwidth import BandwidthProbe
from repro.metrics.divergence import DivergenceCounter
from repro.metrics.queueing import AdmissionStats
from repro.metrics.summary import format_table, format_row

__all__ = [
    "AdmissionStats",
    "LatencyRecorder",
    "BandwidthProbe",
    "DivergenceCounter",
    "format_table",
    "format_row",
]
