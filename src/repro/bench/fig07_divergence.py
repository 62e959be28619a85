"""Figure 7: divergence of preliminary from final views.

Running Correctable Cassandra on a deliberately small (1 K records) dataset,
the paper measures how often the preliminary (R = 1) view differs from the
final (R = 2) view under YCSB workloads A and B with Zipfian and Latest
request distributions, as load increases.  Shapes to reproduce:

* workload A under the Latest distribution diverges the most (paper: up to
  ~25 %);
* workload B (5 % updates) diverges far less than workload A for the same
  distribution;
* Zipfian divergence sits below Latest divergence for the same workload.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Sequence

from repro.bench.common import cassandra_config_for, run_multi_region_load
from repro.core.cluster_spec import ClusterSpec
from repro.metrics.divergence import DivergenceCounter
from repro.metrics.summary import format_table
from repro.sim.rand import derive_seed
from repro.sim.topology import Region
from repro.workloads.ycsb import workload_by_name

if TYPE_CHECKING:  # pragma: no cover - the sweep engine loads on first run
    from repro.bench.sweep import SweepPoint


def cells(configs: Iterable, thread_counts: Sequence[int], seed: int,
          **base: Any):
    """One cell per ((workload, distribution), thread count).

    The per-config load seed is derived here, from the cell's labels
    only, so it never depends on execution order.
    """
    return (({"workload": workload_name, "distribution": distribution,
              "threads": threads},
             dict(base, workload=workload_name, distribution=distribution,
                  threads=threads, scenario_seed=seed,
                  load_seed=derive_seed(
                      seed, f"{workload_name}-{distribution}") % (2 ** 31)))
            for workload_name, distribution in configs
            for threads in thread_counts)


def run_fig07_point(point: SweepPoint) -> Dict:
    """Run one cell of the Figure 7 divergence grid (system CC2).

    Divergence is aggregated over all three client regions to maximize the
    number of compared operations.
    """
    kwargs = point.kwargs
    workload_name, distribution = kwargs["workload"], kwargs["distribution"]
    spec = workload_by_name(workload_name).with_distribution(distribution)
    scenario = ClusterSpec(
        seed=kwargs["scenario_seed"], record_count=kwargs["record_count"],
        client_regions=(Region.IRL, Region.FRK, Region.VRG),
        config=cassandra_config_for("CC2")).build()
    results = run_multi_region_load(
        scenario, "CC2", spec, threads_per_client=kwargs["threads"],
        duration_ms=kwargs["duration_ms"], warmup_ms=kwargs["warmup_ms"],
        cooldown_ms=kwargs["cooldown_ms"], seed=kwargs["load_seed"])
    combined = DivergenceCounter()
    measured_ops = 0
    for result in results.values():
        combined.merge(result.divergence)
        measured_ops += result.measured_ops
    return {
        "workload": workload_name,
        "distribution": distribution,
        "threads_total": kwargs["threads"] * len(results),
        "divergence_pct": combined.divergence_percent(),
        "compared_reads": combined.total,
        "measured_ops": measured_ops,
    }


def format_fig07(records: List[Dict]) -> str:
    rows = [[r["workload"], r["distribution"], r["threads_total"],
             r["divergence_pct"], r["compared_reads"]] for r in records]
    return format_table(
        ["workload", "distribution", "total client threads",
         "divergence (%)", "compared reads"],
        rows,
        title="Figure 7 — divergence of preliminary from final views (CC2, 1K records)")
