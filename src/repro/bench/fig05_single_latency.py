"""Figure 5: single-request read latencies in Cassandra.

The paper compares baseline Cassandra with read quorums 1, 2, 3 (C1, C2, C3)
against Correctable Cassandra issuing ICG reads whose final view uses quorum
2 or 3 (CC2, CC3).  The client is in Ireland, the coordinator in Frankfurt.
The headline observations to reproduce:

* the preliminary view of CC2/CC3 tracks C1 (the client-coordinator RTT);
* the final view of CC2/CC3 tracks C2/C3 respectively;
* the latency gap (speculation window) is ≈ the RTT to the farthest quorum
  member — ~20 ms for CC2 and much larger for CC3.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.bench.common import (
    CASSANDRA_SYSTEMS,
    DrainCheck,
    cassandra_config_for,
)
from repro.core.cluster_spec import ClusterSpec
from repro.metrics.latency import LatencyRecorder
from repro.metrics.summary import format_table
from repro.sim.rand import derive_rng
from repro.sim.topology import Region

if TYPE_CHECKING:  # pragma: no cover - the sweep engine loads on first run
    from repro.bench.sweep import SweepPoint


class _SequentialReads:
    """The completion sink of ``samples`` reads issued one after another:
    records each read's latencies, then issues the next."""

    def __init__(self, system: str, samples: int, issue) -> None:
        self.remaining = samples
        self.issue = issue
        self.preliminary = LatencyRecorder(f"{system}-preliminary")
        self.final = LatencyRecorder(f"{system}-final")
        self.preliminary_ms: Optional[float] = None

    def next(self) -> None:
        if self.remaining > 0:
            self.remaining -= 1
            self.issue(self)

    def deliver_preliminary(self, value: Any, stamp: Any, latency_ms: float,
                            source: Optional[str] = None) -> None:
        self.preliminary_ms = latency_ms

    def deliver_final(self, value: Any, stamp: Any, latency_ms: float,
                      is_confirmation: bool = False, degraded: bool = False,
                      matches_preliminary: Optional[bool] = None) -> None:
        self.final.record(latency_ms)
        if self.preliminary_ms is not None:
            self.preliminary.record(self.preliminary_ms)
            self.preliminary_ms = None
        self.next()

    def deliver_error(self, error: Any, latency_ms: float) -> None:
        self.deliver_final(None, None, latency_ms)


def _measure_single_requests(system: str, samples: int, seed: int,
                             record_count: int) -> Dict[str, Optional[dict]]:
    """Issue ``samples`` sequential reads and summarize their latencies."""
    drain = DrainCheck(f"fig05-{system}")
    scenario = ClusterSpec(
        seed=seed, record_count=record_count,
        client_regions=(Region.IRL,),
        contacts={Region.IRL: Region.FRK},
        config=cassandra_config_for(system, value_size_bytes=100)).build()
    client = scenario.client_in(Region.IRL)
    profile = CASSANDRA_SYSTEMS[system]
    rng = derive_rng(seed, f"fig05-{system}")

    def _issue(reads: _SequentialReads) -> None:
        key = scenario.dataset.key(rng.randrange(record_count))
        client.lean_read(key, profile["r"], profile["icg"], reads)

    reads = _SequentialReads(system, samples, _issue)
    reads.next()
    scenario.env.run_until_idle()
    drain.verify(scenario.cluster)
    return {
        "preliminary": (reads.preliminary.summary()
                        if reads.preliminary.count else None),
        "final": reads.final.summary(),
    }


def run_fig05_point(point: SweepPoint) -> Dict:
    return _measure_single_requests(**point.kwargs)


def latency_gap_ms(results: Dict[str, Dict], system: str) -> float:
    """The mean preliminary-to-final gap for an ICG system (the speculation window)."""
    entry = results[system]
    if entry["preliminary"] is None:
        return 0.0
    return entry["final"]["mean_ms"] - entry["preliminary"]["mean_ms"]


def format_fig05(results: Dict[str, Dict]) -> str:
    """Render the figure as a text table (one row per system and view)."""
    rows: List[list] = []
    for system, entry in results.items():
        if entry["preliminary"] is not None:
            rows.append([system, "preliminary",
                         entry["preliminary"]["mean_ms"],
                         entry["preliminary"]["p99_ms"]])
        rows.append([system, "final",
                     entry["final"]["mean_ms"], entry["final"]["p99_ms"]])
    return format_table(
        ["system", "view", "mean latency (ms)", "p99 latency (ms)"], rows,
        title="Figure 5 — Cassandra single-request read latency by quorum configuration")
