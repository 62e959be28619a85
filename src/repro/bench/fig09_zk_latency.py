"""Figure 9: latency gaps for queue operations in Correctable ZooKeeper.

A client in Ireland enqueues small elements under four ensemble
configurations — the leader in Ireland or Virginia, the client connected
either to a follower or to the leader.  Shapes to reproduce:

* the preliminary latency equals the RTT between the client and the server
  it is connected to (≈2 ms when colocated in IRL, ≈20 ms to FRK, ≈83 ms to
  VRG);
* the final latency matches vanilla ZooKeeper for the same configuration;
* the most dramatic gap appears when the client talks to a nearby follower
  while the leader is far away (leader in VRG, follower in IRL).

The same harness also reports the enqueue bandwidth overhead the paper
quotes in Section 6.2.2 (roughly +50 %, one extra preliminary response).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional

from repro.bench.common import DrainCheck
from repro.metrics.bandwidth import BandwidthProbe
from repro.metrics.latency import LatencyRecorder
from repro.metrics.summary import format_table
from repro.sim.environment import SimEnvironment
from repro.sim.topology import Region
from repro.zookeeper_sim.client import ZKClient
from repro.zookeeper_sim.cluster import ZooKeeperCluster

if TYPE_CHECKING:  # pragma: no cover - the sweep engine loads on first run
    from repro.bench.sweep import SweepPoint


def _other_regions(leader_region: str) -> List[str]:
    return [r for r in (Region.IRL, Region.FRK, Region.VRG)
            if r != leader_region]


class EnqueueLoop:
    """One client enqueuing back to back, as its own completion sink
    (:meth:`ZKClient.submit_sink`): latencies go straight into the
    recorders and the final answer issues the next enqueue."""

    def __init__(self, client: ZKClient, icg: bool, samples: int) -> None:
        self.client = client
        self.icg = icg
        self.remaining = samples
        self.preliminary = LatencyRecorder("preliminary")
        self.final = LatencyRecorder("final")

    def issue_next(self) -> None:
        if self.remaining <= 0:
            return
        self.remaining -= 1
        self.client.submit_sink("enqueue", "/queue", self,
                                f"element-{self.remaining}", icg=self.icg)

    def deliver_preliminary(self, value: Any, stamp: Any, latency_ms: float,
                            source: Optional[str] = None) -> None:
        self.preliminary.record(latency_ms)

    def deliver_final(self, value: Any, stamp: Any, latency_ms: float,
                      is_confirmation: bool = False,
                      degraded: bool = False) -> None:
        self.final.record(latency_ms)
        self.issue_next()

    def deliver_error(self, error: Any, latency_ms: float) -> None:
        # A refused or timed-out enqueue still answered: it counts the same.
        self.deliver_final(None, None, latency_ms)


def measure_enqueues(leader_region: str, connect_region: str, icg: bool,
                      samples: int, seed: int) -> Dict:
    drain = DrainCheck(f"fig09 {leader_region} {connect_region} icg={icg}")
    env = SimEnvironment(seed=seed)
    cluster = ZooKeeperCluster(env, leader_region=leader_region,
                               follower_regions=_other_regions(leader_region))
    client = cluster.add_client("zk-bench-client", region=Region.IRL,
                                connect_region=connect_region)
    for server in cluster.servers:
        server.tree.create("/queue")

    probe = BandwidthProbe(env.network, [client.name],
                           [s.name for s in cluster.servers])
    probe.start()
    loop = EnqueueLoop(client, icg, samples)
    loop.issue_next()
    env.run_until_idle()
    drain.verify(cluster)
    probe.stop()
    preliminary, final = loop.preliminary, loop.final
    return {
        "preliminary": preliminary.summary() if preliminary.count else None,
        "final": final.summary(),
        "bytes_per_op": probe.bytes_transferred() / max(1, final.count),
        "events": env.scheduler.events_executed,
    }


def cells(configurations: Iterable, samples: int, seed: int):
    """One cell per ensemble configuration, given as ``(label, leader
    region, region of the server the client connects to)``; CZK and
    vanilla ZK both run inside it."""
    return (({"configuration": label},
             dict(label=label, leader_region=leader_region,
                  connect_region=connect_region, samples=samples, seed=seed))
            for label, leader_region, connect_region in configurations)


def run_fig09_point(point: SweepPoint) -> Dict:
    """Measure one configuration: CZK (ICG) and vanilla ZK back to back."""
    kwargs = point.kwargs
    leader_region = kwargs["leader_region"]
    connect_region = kwargs["connect_region"]
    czk = measure_enqueues(leader_region, connect_region, icg=True,
                            samples=kwargs["samples"], seed=kwargs["seed"])
    zk = measure_enqueues(leader_region, connect_region, icg=False,
                           samples=kwargs["samples"], seed=kwargs["seed"])
    return {
        "configuration": kwargs["label"],
        "leader_region": leader_region,
        "connect_region": connect_region,
        "czk_preliminary_ms": czk["preliminary"]["mean_ms"],
        "czk_final_ms": czk["final"]["mean_ms"],
        "czk_final_p99_ms": czk["final"]["p99_ms"],
        "zk_final_ms": zk["final"]["mean_ms"],
        "czk_bytes_per_op": czk["bytes_per_op"],
        "zk_bytes_per_op": zk["bytes_per_op"],
        "latency_gap_ms": czk["final"]["mean_ms"] - czk["preliminary"]["mean_ms"],
    }


def format_fig09(records: List[Dict]) -> str:
    rows = [[r["configuration"], r["czk_preliminary_ms"], r["czk_final_ms"],
             r["zk_final_ms"], r["latency_gap_ms"],
             r["czk_bytes_per_op"], r["zk_bytes_per_op"]] for r in records]
    return format_table(
        ["configuration", "CZK prelim (ms)", "CZK final (ms)", "ZK (ms)",
         "gap (ms)", "CZK B/op", "ZK B/op"],
        rows,
        title="Figure 9 — ZooKeeper enqueue latency gaps (client in IRL)")
