"""Shared scenario construction for the benchmark harnesses.

A *scenario* bundles a simulation environment, a preloaded cluster, and the
client nodes the experiment drives.  The system labels follow the paper's
notation: ``C1``/``C2``/``C3`` are baseline Cassandra with read quorum 1/2/3,
``CC2``/``CC3`` are Correctable Cassandra issuing ICG reads whose final view
uses quorum 2/3, and ``*CC2`` is CC2 with the confirmation optimization.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.cassandra_sim.client import CassandraClient
from repro.cassandra_sim.config import CassandraConfig
from repro.cassandra_sim.coordinator import FusedRead, FusedWrite
from repro.sim.network import estimate_payload_size
from repro.core.cluster_spec import REMOTE_CONTACTS, BuiltCluster, ClusterSpec
from repro.sim.topology import Region, replica_regions_default
from repro.workloads.records import Dataset
from repro.workloads.runner import ClosedLoopRunner, RunResult, _OpenOp
from repro.workloads.ycsb import OperationGenerator, WorkloadSpec
from repro.sim.rand import derive_rng

#: System label -> (read quorum of the final view, uses ICG).
CASSANDRA_SYSTEMS: Dict[str, Dict[str, Any]] = {
    "C1": {"r": 1, "icg": False},
    "C2": {"r": 2, "icg": False},
    "C3": {"r": 3, "icg": False},
    "CC2": {"r": 2, "icg": True},
    "CC3": {"r": 3, "icg": True},
    "*CC2": {"r": 2, "icg": True, "confirmation_optimization": True},
}

#: Historical name for the built deployment; construction now lives in
#: :class:`repro.core.cluster_spec.ClusterSpec` (as does
#: :data:`REMOTE_CONTACTS`, re-exported above unchanged).
CassandraScenario = BuiltCluster


def build_cassandra_scenario(seed: int = 0,
                             record_count: int = 1000,
                             value_size_bytes: int = 100,
                             key_prefix: str = "user",
                             client_regions: Sequence[str] = (Region.IRL,),
                             contacts: Optional[Dict[str, str]] = None,
                             config: Optional[CassandraConfig] = None,
                             replica_regions: Optional[Sequence[str]] = None,
                             preload: bool = True,
                             client_fallbacks: bool = False) -> CassandraScenario:
    """Build a 3-replica cluster (FRK/IRL/VRG by default) with clients and data.

    Deprecated shim over :class:`repro.core.cluster_spec.ClusterSpec` — new
    code should build a spec directly (it also exposes node count, RF, and
    vnodes).  Kept because its construction sequence produced the committed
    figure tables; a default spec reproduces it byte for byte.

    ``client_fallbacks=True`` gives every client the remaining replicas as
    backup coordinators (used by the fault experiments together with
    ``CassandraConfig.fault_tolerant()``).
    """
    regions = tuple(replica_regions if replica_regions is not None
                    else replica_regions_default())
    spec = ClusterSpec(nodes=len(regions), regions=regions,
                       config=config, seed=seed,
                       record_count=record_count,
                       value_size_bytes=value_size_bytes,
                       key_prefix=key_prefix,
                       client_regions=tuple(client_regions),
                       contacts=contacts, preload=preload,
                       client_fallbacks=client_fallbacks)
    return spec.build()


def make_kv_issue(client: CassandraClient, system: str,
                  write_quorum: int = 1) -> Callable:
    """Build the runner ``issue`` function for one Cassandra system label.

    The returned callable executes YCSB reads/updates directly against the
    storage client, which completes each one into the runner's record
    (ICG reads flag it first, so it also accounts the preliminary view).
    """
    if system not in CASSANDRA_SYSTEMS:
        raise KeyError(f"unknown system label {system!r}")
    profile = CASSANDRA_SYSTEMS[system]
    read_quorum = profile["r"]
    icg = profile["icg"]
    network = client.network
    scheduler = client.scheduler
    clock = scheduler.clock
    timeout_ms = client.config.client_timeout_ms
    write_base = client._write_base
    client.check_quorum(read_quorum, "read")
    client.check_quorum(write_quorum, "write")

    def _issue(op_type: str, key: str, value: Optional[str], sink,
               session_id: Optional[int] = None) -> None:
        # The client's lean_read/lean_write, inlined (quorums checked once,
        # above) — this is the per-op entry of the closed issue loop.
        coordinator = client._fused_coordinator
        if coordinator is None:
            coordinator = client._resolve_contacts()
        if op_type == "update":
            client.writes_sent += 1
            rec = FusedWrite.acquire()
            rec.value = value
            rec.w = write_quorum
            size = write_base + (len(value)
                                 if type(value) is str and value.isascii()
                                 else estimate_payload_size(value))
            entry = coordinator._fused_client_write
        else:
            client.reads_sent += 1
            sink.icg = icg
            rec = FusedRead.acquire()
            rec.r = read_quorum
            rec.icg = icg
            size = client._read_size
            entry = coordinator._fused_client_read
        rec.client = client
        rec.op = rec
        rec.coordinator = coordinator
        rec.key = key
        rec.sink = sink
        rec.sent_at = clock._now
        sent = network.fused_send_to(client, coordinator.name, size, entry,
                                     rec.args)
        if timeout_ms > 0:
            rec.timer = scheduler.schedule(
                timeout_ms, client._fused_request_timeout, rec)
            rec.refs = sent + 2
        else:
            rec.refs = sent + 1

    return _issue


def _records_out() -> Tuple[int, int]:
    """``FusedRead``/``FusedWrite`` and ``_OpenOp`` records out of their
    (process-wide) pools."""
    fused = sum(stats["created"] + stats["reused"] - stats["recycled"]
                for stats in (FusedRead.pool_stats(),
                              FusedWrite.pool_stats()))
    open_ops = _OpenOp.pool_stats()
    return fused, open_ops["created"] - open_ops["free"]


class DrainCheck:
    """The end-of-point check of every load-engine figure: the run drained.

    Made when a point starts, noting what was already out of the pools;
    :meth:`verify` at its end raises if a record acquired since is not back,
    or if a Cassandra or ZooKeeper cluster still has anything in flight.
    """

    def __init__(self, label: str) -> None:
        self.label = label
        self.records_out = _records_out()

    def verify(self, *clusters: Any) -> None:
        problems = [f"{now - before} {pool} records not retired"
                    for pool, now, before in zip(
                        ("request", "open-loop operation"), _records_out(),
                        self.records_out)
                    if now != before]
        problems += [f"in flight: {in_flight}" for in_flight in
                     (cluster.in_flight() for cluster in clusters)
                     if any(in_flight.values())]
        if problems:
            raise RuntimeError(f"{self.label} did not drain: "
                               + "; ".join(problems))


def make_generator_factory(spec: WorkloadSpec, dataset: Dataset, seed: int,
                           label: str) -> Callable[[int], OperationGenerator]:
    """Per-thread operation generators with independent random streams."""

    def _factory(thread_id: int) -> OperationGenerator:
        rng = derive_rng(seed, f"{label}-thread-{thread_id}")
        return OperationGenerator(spec, dataset, rng)

    return _factory


def run_multi_region_load(scenario: CassandraScenario, system: str,
                          spec: WorkloadSpec, threads_per_client: int,
                          duration_ms: float, warmup_ms: float,
                          cooldown_ms: float, seed: int,
                          measured_region: str = Region.IRL
                          ) -> Dict[str, RunResult]:
    """Run closed-loop load from every client region simultaneously.

    Returns the per-region :class:`RunResult`; the paper reports the client
    in Ireland, which callers pick via ``measured_region``.
    """
    drain = DrainCheck(f"{system} {spec.name} x{threads_per_client}")
    runners: Dict[str, ClosedLoopRunner] = {}
    for region, client in scenario.clients.items():
        issue = make_kv_issue(client, system)
        runner = ClosedLoopRunner(
            scheduler=scenario.env.scheduler,
            issue=issue,
            make_generator=make_generator_factory(
                spec, scenario.dataset, seed, f"{system}-{region}"),
            threads=threads_per_client,
            duration_ms=duration_ms,
            warmup_ms=warmup_ms,
            cooldown_ms=cooldown_ms,
            label=f"{system}-{spec.name}-{region}",
        )
        runners[region] = runner
    for runner in runners.values():
        runner.start()
    end = max(runner.end_time for runner in runners.values())
    scenario.env.run(until=end + 60_000.0)
    drain.verify(scenario.cluster)
    return {region: runner.result for region, runner in runners.items()}


def cassandra_config_for(system: str,
                         value_size_bytes: int = 1000) -> CassandraConfig:
    """Cluster configuration appropriate for a system label.

    ``value_size_bytes`` defaults to a full YCSB record (10 fields × 100 B):
    reads return the whole record while updates write a single 100 B field,
    which is the asymmetry the paper's bandwidth figures assume.  The
    single-request microbenchmark (Figure 5) overrides this with 100 B
    objects, as in the paper.
    """
    profile = CASSANDRA_SYSTEMS[system]
    return CassandraConfig(
        value_size_bytes=value_size_bytes,
        confirmation_optimization=bool(
            profile.get("confirmation_optimization", False)),
    )
