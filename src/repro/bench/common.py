"""What the benchmark harnesses share: system labels, the Cassandra issue
function, the drain check and the closed-loop drive.

The system labels follow the paper's notation: ``C1``/``C2``/``C3`` are
baseline Cassandra with read quorum 1/2/3, ``CC2``/``CC3`` are Correctable
Cassandra issuing ICG reads whose final view uses quorum 2/3, and ``*CC2``
is CC2 with the confirmation optimization.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.cassandra_sim.client import CassandraClient
from repro.cassandra_sim.config import CassandraConfig
from repro.cassandra_sim.coordinator import FusedRead, FusedWrite
from repro.core.cluster_spec import BuiltCluster
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


def make_kv_issue(client: CassandraClient, system: str,
                  write_quorum: int = 1) -> Callable:
    """Build the runner ``issue`` function for one Cassandra system label.

    The returned callable issues YCSB reads/updates through the storage
    client's ``lean_read``/``lean_write``, which complete each one into the
    runner's record (ICG reads flag it first, so it also accounts the
    preliminary view).  A quorum no operation could assemble fails here,
    when the function is built.
    """
    if system not in CASSANDRA_SYSTEMS:
        raise KeyError(f"unknown system label {system!r}")
    profile = CASSANDRA_SYSTEMS[system]
    read_quorum = profile["r"]
    icg = profile["icg"]
    client.check_quorum(read_quorum, "read")
    client.check_quorum(write_quorum, "write")
    lean_read = client.lean_read
    lean_write = client.lean_write

    def _issue(op_type: str, key: str, value: Optional[str], sink,
               session_id: Optional[int] = None) -> None:
        if op_type == "update":
            lean_write(key, value, write_quorum, sink)
        else:
            sink.icg = icg
            lean_read(key, read_quorum, icg, sink)

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


def run_until_settled(env: Any, runners: Iterable[Any],
                      settle_ms: float) -> float:
    """Start every runner, then run until ``settle_ms`` after the latest
    one ends (stragglers, retries and repairs finish meanwhile); returns
    that latest end time."""
    runners = list(runners)
    for runner in runners:
        runner.start()
    end = max(runner.end_time for runner in runners)
    env.run(until=end + settle_ms)
    return end


def run_multi_region_load(scenario: BuiltCluster, system: str,
                          spec: WorkloadSpec, threads_per_client: int,
                          duration_ms: float, warmup_ms: float,
                          cooldown_ms: float, seed: int
                          ) -> Dict[str, RunResult]:
    """Run closed-loop load from every client region simultaneously.

    Returns the per-region :class:`RunResult`; the paper reports the client
    in Ireland.
    """
    drain = DrainCheck(f"{system} {spec.name} x{threads_per_client}")
    runners = {
        region: ClosedLoopRunner(
            scheduler=scenario.env.scheduler,
            issue=make_kv_issue(client, system),
            make_generator=make_generator_factory(
                spec, scenario.dataset, seed, f"{system}-{region}"),
            threads=threads_per_client, duration_ms=duration_ms,
            warmup_ms=warmup_ms, cooldown_ms=cooldown_ms,
            label=f"{system}-{spec.name}-{region}")
        for region, client in scenario.clients.items()}
    run_until_settled(scenario.env, runners.values(), 60_000.0)
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
