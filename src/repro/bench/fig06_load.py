"""Figure 6: Correctable Cassandra under YCSB load.

Latency as a function of throughput for workloads A (50:50), B (95:5) and
C (read-only), comparing C1, C2 and CC2 (whose preliminary and final views
are reported separately).  Three clients — one per region, each connected to
a remote replica — generate load; the reported numbers are for the client in
Ireland, as in the paper.  Shapes to reproduce:

* CC2's preliminary latency tracks C1 and its final latency tracks C2;
* CC2 saturates at a somewhat lower throughput than C2 (the cost of
  preliminary flushing at the coordinator).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.bench.common import (
    build_cassandra_scenario,
    cassandra_config_for,
    run_multi_region_load,
)
from repro.bench.sweep import JobsSpec, SweepPoint, make_points, run_sweep
from repro.metrics.summary import format_table
from repro.sim.topology import Region
from repro.workloads.ycsb import workload_by_name

DEFAULT_SYSTEMS = ("C1", "C2", "CC2")
DEFAULT_WORKLOADS = ("A", "B", "C")
DEFAULT_THREADS = (2, 6, 12)


def build_fig06_points(systems: Iterable[str] = DEFAULT_SYSTEMS,
                       workloads: Iterable[str] = DEFAULT_WORKLOADS,
                       thread_counts: Sequence[int] = DEFAULT_THREADS,
                       duration_ms: float = 8_000.0,
                       warmup_ms: float = 2_000.0,
                       cooldown_ms: float = 1_000.0,
                       record_count: int = 1_000,
                       seed: int = 42) -> List[SweepPoint]:
    """One sweep point per (workload, system, thread count) cell."""
    return make_points("fig06", (
        ({"workload": workload_name, "system": system, "threads": threads},
         dict(workload=workload_name, system=system, threads=threads,
              duration_ms=duration_ms, warmup_ms=warmup_ms,
              cooldown_ms=cooldown_ms, record_count=record_count, seed=seed))
        for workload_name in workloads
        for system in systems
        for threads in thread_counts))


def run_fig06_point(point: SweepPoint) -> Dict:
    """Run one (workload, system, thread count) cell of the Figure 6 grid."""
    kwargs = point.kwargs
    workload_name, system = kwargs["workload"], kwargs["system"]
    seed = kwargs["seed"]
    spec = workload_by_name(workload_name)
    scenario = build_cassandra_scenario(
        seed=seed, record_count=kwargs["record_count"],
        client_regions=(Region.IRL, Region.FRK, Region.VRG),
        config=cassandra_config_for(system))
    results = run_multi_region_load(
        scenario, system, spec, threads_per_client=kwargs["threads"],
        duration_ms=kwargs["duration_ms"], warmup_ms=kwargs["warmup_ms"],
        cooldown_ms=kwargs["cooldown_ms"], seed=seed)
    measured = results[Region.IRL]
    return {
        "workload": workload_name,
        "system": system,
        "threads_per_client": kwargs["threads"],
        "throughput_ops_s": measured.throughput_ops_per_sec(),
        "final_mean_ms": measured.final_latency.mean(),
        "final_p99_ms": measured.final_latency.p99(),
        "preliminary_mean_ms": measured.preliminary_latency.mean()
        if measured.preliminary_latency.count else None,
        "measured_ops": measured.measured_ops,
    }


def run_fig06(systems: Iterable[str] = DEFAULT_SYSTEMS,
              workloads: Iterable[str] = DEFAULT_WORKLOADS,
              thread_counts: Sequence[int] = DEFAULT_THREADS,
              duration_ms: float = 8_000.0, warmup_ms: float = 2_000.0,
              cooldown_ms: float = 1_000.0, record_count: int = 1_000,
              seed: int = 42, jobs: JobsSpec = 1) -> List[Dict]:
    """Regenerate the Figure 6 latency-vs-throughput series.

    Returns one record per (workload, system, thread count) with the measured
    client's throughput and preliminary/final latencies.
    """
    points = build_fig06_points(
        systems=systems, workloads=workloads, thread_counts=thread_counts,
        duration_ms=duration_ms, warmup_ms=warmup_ms, cooldown_ms=cooldown_ms,
        record_count=record_count, seed=seed)
    return run_sweep(points, run_fig06_point, jobs=jobs).records()


def format_fig06(records: List[Dict]) -> str:
    """Render the figure as one table ordered by workload / system / load."""
    rows = []
    for record in records:
        rows.append([
            record["workload"], record["system"],
            record["threads_per_client"],
            record["throughput_ops_s"],
            record["final_mean_ms"],
            record["preliminary_mean_ms"]
            if record["preliminary_mean_ms"] is not None else "-",
        ])
    return format_table(
        ["workload", "system", "threads/client", "throughput (ops/s)",
         "final latency (ms)", "preliminary latency (ms)"],
        rows,
        title="Figure 6 — latency vs throughput under YCSB load (client in IRL)")
