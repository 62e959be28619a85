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

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Sequence

from repro.bench.common import cassandra_config_for, run_multi_region_load
from repro.core.cluster_spec import ClusterSpec
from repro.metrics.summary import format_table
from repro.sim.topology import Region
from repro.workloads.ycsb import workload_by_name

if TYPE_CHECKING:  # pragma: no cover - the sweep engine loads on first run
    from repro.bench.sweep import SweepPoint


def cells(workloads: Iterable[str], systems: Iterable[str],
          thread_counts: Sequence[int], **base: Any):
    """One cell per (workload, system, thread count)."""
    return (({"workload": workload_name, "system": system,
              "threads": threads},
             dict(base, workload=workload_name, system=system,
                  threads=threads))
            for workload_name in workloads
            for system in systems
            for threads in thread_counts)


def run_fig06_point(point: SweepPoint) -> Dict:
    """Run one (workload, system, thread count) cell of the Figure 6 grid."""
    kwargs = point.kwargs
    workload_name, system = kwargs["workload"], kwargs["system"]
    seed = kwargs["seed"]
    spec = workload_by_name(workload_name)
    scenario = ClusterSpec(
        seed=seed, record_count=kwargs["record_count"],
        client_regions=(Region.IRL, Region.FRK, Region.VRG),
        config=cassandra_config_for(system)).build()
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
