"""Figure 13 (beyond the paper): Correctables under injected faults.

The paper evaluates preliminary/final views on a healthy deployment; this
harness measures what happens when the storage actually misbehaves, which is
when bounding the cost of acting on preliminary views matters most.  Every
run drives the fault-tolerant protocol variants (coordinator timeouts with
retry/downgrade, client failover, read repair, ZooKeeper leader election)
through the scenarios of :mod:`repro.faults.scenarios`:

* **Cassandra (CC2)** — YCSB-B closed-loop load from three regions while a
  replica crashes, a WAN partition opens and heals, a link flaps, or one
  replica runs an order of magnitude slower.  Reported per scenario:
  throughput, preliminary/final latency, divergence (and its complement,
  preliminary-view accuracy), downgraded and failed operations, retries, and
  late preliminary views discarded after the final response.
* **ZooKeeper (CZK)** — an ICG queue workload across the ensemble while the
  leader crashes; followers detect the failure, elect a replacement, and
  clients fail over.  Reported: completed/failed operations, elections and
  promotions, and whether leadership actually moved.

Shapes to expect: the baseline row shows zero degraded/failed operations;
replica-crash and wan-partition complete their reads via retry or downgrade
(no failures) at the cost of tail latency; divergence rises under faults
because retried reads observe replicas mid-repair; the leader-crash run
elects exactly one new leader and keeps the queue serving.
"""

from __future__ import annotations

import random
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Sequence,
)

from repro.bench.common import (
    DrainCheck,
    make_generator_factory,
    make_kv_issue,
    run_until_settled,
)
from repro.cassandra_sim.config import CassandraConfig
from repro.core.cluster_spec import ClusterSpec
from repro.faults import (
    FaultInjector,
    cassandra_aliases,
    get_scenario,
    zookeeper_aliases,
)
from repro.metrics.divergence import DivergenceCounter
from repro.metrics.latency import LatencyRecorder
from repro.metrics.summary import format_table
from repro.sim.environment import SimEnvironment
from repro.sim.rand import derive_rng, derive_seed
from repro.sim.topology import Region
from repro.workloads.runner import ClosedLoopRunner
from repro.workloads.ycsb import workload_by_name
from repro.zookeeper_sim.cluster import ZooKeeperCluster
from repro.zookeeper_sim.config import ZooKeeperConfig

if TYPE_CHECKING:  # pragma: no cover - the sweep engine loads on first run
    from repro.bench.sweep import SweepPoint


def run_fig13_scenario(scenario_name: str, workload: str,
                       threads_per_client: int, duration_ms: float,
                       warmup_ms: float, cooldown_ms: float,
                       record_count: int, seed: int) -> Dict:
    """Run one Cassandra fault scenario ("baseline" = no faults, for
    reference); returns its figure record."""
    spec = workload_by_name(workload).with_distribution("zipfian")
    drain = DrainCheck(f"fig13 CC2 {scenario_name}")
    built = ClusterSpec(
        seed=seed, record_count=record_count,
        client_regions=(Region.IRL, Region.FRK, Region.VRG),
        config=CassandraConfig.fault_tolerant(),
        client_fallbacks=True).build()
    injector = None
    description = "no faults (reference)"
    if scenario_name != "baseline":
        scenario = get_scenario(scenario_name)
        description = scenario.description
        injector = FaultInjector(built.env, schedule=scenario,
                                 aliases=cassandra_aliases(built.cluster))
    runners: Dict[str, ClosedLoopRunner] = {}
    for index, (region, client) in enumerate(built.clients.items()):
        runners[region] = ClosedLoopRunner(
            scheduler=built.env.scheduler,
            issue=make_kv_issue(client, "CC2"),
            make_generator=make_generator_factory(
                spec, built.dataset,
                derive_seed(seed, f"fig13-{scenario_name}") % (2 ** 31),
                f"fig13-{region}"),
            threads=threads_per_client,
            duration_ms=duration_ms,
            warmup_ms=warmup_ms,
            cooldown_ms=cooldown_ms,
            label=f"fig13-{scenario_name}-{region}",
            # Arm the fault script once, alongside the first runner.
            faults=injector if index == 0 else None,
        )
    run_until_settled(built.env, runners.values(), 60_000.0)
    drain.verify(built.cluster)
    return {
        "system": "CC2",
        "scenario": scenario_name,
        "description": description,
        **_merged_results(runners.values(),
                          duration_ms - warmup_ms - cooldown_ms),
        "coordinator_retries": sum(r.read_retries + r.write_retries
                                   for r in built.cluster.replicas),
        "client_retries": sum(c.retries for c in built.cluster.clients),
        "discarded_updates": sum(c.late_preliminaries
                                 for c in built.cluster.clients),
        "messages_dropped": built.env.network.messages_dropped,
        "faults_applied": len(injector.log) if injector else 0,
    }


def _merged_results(runners: Iterable[ClosedLoopRunner],
                    measured_window_ms: float) -> Dict:
    """The record columns every fig13 cell reports, over all its runners
    (whatever the store: their records account completions alike)."""
    divergence = DivergenceCounter()
    final_latency = LatencyRecorder()
    preliminary_latency = LatencyRecorder()
    measured_ops = degraded = failed = 0
    for result in (runner.result for runner in runners):
        divergence.merge(result.divergence)
        final_latency.merge(result.final_latency)
        preliminary_latency.merge(result.preliminary_latency)
        measured_ops += result.measured_ops
        degraded += result.degraded_ops
        failed += result.failed_ops
    return {
        "measured_ops": measured_ops,
        "throughput_ops_s": measured_ops / (measured_window_ms / 1000.0),
        "preliminary_mean_ms": preliminary_latency.mean(),
        "final_mean_ms": final_latency.mean(),
        "final_p99_ms": final_latency.p99(),
        "divergence_pct": divergence.divergence_percent(),
        "prelim_accuracy_pct": 100.0 - divergence.divergence_percent(),
        "degraded_ops": degraded,
        "failed_ops": failed,
    }


def cells(scenarios: Sequence[str], zk: Dict[str, Any], seed: int,
          **cassandra: Any):
    """One cell per Cassandra fault scenario, then the ZooKeeper leader
    crash (``zk`` holds its parameters): one sweep covers both systems,
    so the ZooKeeper run parallelizes alongside the Cassandra ones."""
    for scenario_name in scenarios:
        yield ({"system": "CC2", "scenario": scenario_name},
               dict(cassandra, scenario_name=scenario_name, seed=seed))
    yield ({"system": "CZK", "scenario": "leader-crash"}, dict(zk, seed=seed))


def run_fig13_point(point: SweepPoint) -> Dict:
    """Dispatch one fault point to the Cassandra or ZooKeeper harness."""
    if point.label("system") == "CZK":
        return run_fig13_zookeeper(**point.kwargs)
    return run_fig13_scenario(**point.kwargs)


class _QueueOpGenerator:
    """Closed-loop generator alternating weighted enqueue/dequeue operations."""

    def __init__(self, queue_path: str, rng: random.Random,
                 enqueue_fraction: float = 0.5) -> None:
        self.queue_path = queue_path
        self.rng = rng
        self.enqueue_fraction = enqueue_fraction
        self._counter = 0

    def next_operation(self):
        self._counter += 1
        if self.rng.random() < self.enqueue_fraction:
            return "enqueue", self.queue_path, f"job-{self._counter}"
        return "dequeue", self.queue_path, None


class _QueueOpSink:
    """Forwards a queue operation's answers into the runner's record with
    the znode named as the value (the result dicts differ elsewhere)."""

    __slots__ = ("sink",)

    def __init__(self, sink: Any) -> None:
        self.sink = sink

    def deliver_preliminary(self, value: Any, stamp: Any, latency_ms: float,
                            source: Optional[str] = None) -> None:
        self.sink.deliver_preliminary((value or {}).get("name"), stamp,
                                      latency_ms, source)

    def deliver_final(self, value: Any, stamp: Any, latency_ms: float,
                      is_confirmation: bool = False, degraded: bool = False,
                      matches_preliminary: Optional[bool] = None) -> None:
        self.sink.deliver_final((value or {}).get("name"), stamp, latency_ms,
                                is_confirmation, degraded,
                                matches_preliminary)

    def deliver_error(self, error: Any, latency_ms: float) -> None:
        self.sink.deliver_error(error, latency_ms)


def run_fig13_zookeeper(crash_at_ms: float, crash_duration_ms: float,
                        threads_per_client: int, duration_ms: float,
                        warmup_ms: float, cooldown_ms: float,
                        queue_depth: int, seed: int) -> Dict:
    """Run the CZK queue workload through a leader crash; returns one record."""
    drain = DrainCheck("fig13 CZK leader-crash")
    env = SimEnvironment(seed=seed)
    config = ZooKeeperConfig.fault_tolerant()
    cluster = ZooKeeperCluster(env, leader_region=Region.IRL,
                               follower_regions=(Region.FRK, Region.VRG),
                               config=config)
    cluster.preload_queue("/queue", [f"ticket-{i}" for i in range(queue_depth)])
    cluster.enable_failure_detection()
    old_leader = cluster.leader.name

    scenario = get_scenario("leader-crash", at_ms=crash_at_ms,
                            duration_ms=crash_duration_ms)
    injector = FaultInjector(env, schedule=scenario,
                             aliases=zookeeper_aliases(cluster))

    def make_issue(client) -> Callable:
        def _issue(op_type: str, path: str, value: Optional[str], sink,
                   session_id: Optional[int] = None) -> None:
            sink.icg = True
            client.submit_sink(op_type, path, _QueueOpSink(sink), value,
                               icg=True)
        return _issue

    runners = []
    for index, region in enumerate((Region.IRL, Region.FRK, Region.VRG)):
        client = cluster.add_client(f"queue-client-{region}", region,
                                    connect_region=region, failover=True)
        runners.append(ClosedLoopRunner(
            scheduler=env.scheduler,
            issue=make_issue(client),
            make_generator=lambda thread_id, _r=region: _QueueOpGenerator(
                "/queue", derive_rng(seed, f"fig13zk-{_r}-{thread_id}")),
            threads=threads_per_client,
            duration_ms=duration_ms,
            warmup_ms=warmup_ms,
            cooldown_ms=cooldown_ms,
            label=f"fig13-leader-crash-{region}",
            faults=injector if index == 0 else None,
        ))
    end = run_until_settled(env, runners, 60_000.0)

    # Liveness probe: the re-elected ensemble must still commit writes
    # (guards against a post-election stall that op counters alone can
    # miss, since timed-out operations still "complete" at the client).
    probe_results: List[Dict] = []
    cluster.clients[0].enqueue("/queue", "fig13-probe",
                               on_final=probe_results.append)
    env.run(until=end + 120_000.0)
    drain.verify(cluster)
    new_leader = cluster.current_leader()
    return {
        "system": "CZK",
        "scenario": "leader-crash",
        "description": scenario.description,
        **_merged_results(runners, duration_ms - warmup_ms - cooldown_ms),
        "coordinator_retries": sum(s.elections_started for s in cluster.servers),
        "client_retries": sum(c.retries for c in cluster.clients),
        "discarded_updates": 0,
        "messages_dropped": env.network.messages_dropped,
        "faults_applied": len(injector.log),
        # ZooKeeper-specific outcomes asserted by the benchmark test.
        "old_leader": old_leader,
        "new_leader": new_leader.name if new_leader else None,
        "leader_changed": bool(new_leader and new_leader.name != old_leader),
        "promotions": sum(s.promotions for s in cluster.servers),
        "post_crash_commit_ok": bool(probe_results and probe_results[0]["ok"]),
        "committed_txns": max(s.commit_log.last_applied
                              for s in cluster.servers),
    }


def format_fig13(records: List[Dict]) -> str:
    columns = ["system", "scenario", "measured_ops", "throughput_ops_s",
               "preliminary_mean_ms", "final_mean_ms", "final_p99_ms",
               "divergence_pct", "prelim_accuracy_pct", "degraded_ops",
               "failed_ops", "coordinator_retries", "client_retries",
               "discarded_updates"]
    headers = ["system", "scenario", "ops", "ops/s", "prelim mean (ms)",
               "final mean (ms)", "final p99 (ms)", "divergence (%)",
               "prelim accuracy (%)", "degraded", "failed", "coord retries",
               "client retries", "discarded"]
    rows = [[record[c] for c in columns] for record in records]
    lines = [format_table(
        headers, rows,
        title=("Figure 13 — Correctables under injected faults "
               "(CC2 reads r=2 + CZK queue, fault-tolerant configs)"))]
    for record in records:
        lines.append(f"  {record['scenario']}: {record['description']}")
    return "\n".join(lines)
