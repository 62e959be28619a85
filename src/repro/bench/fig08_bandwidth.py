"""Figure 8: client-replica bandwidth cost of ICG in Correctable Cassandra.

Under the divergence-experiment conditions (1 K records, workloads A and B,
Latest and Zipfian distributions) the paper measures average kB transferred
per operation between the client and its coordinator for:

* ``C1``   — the conservative baseline (single weak read per operation);
* ``CC2``  — ICG without the confirmation optimization;
* ``*CC2`` — ICG with the confirmation optimization (identical final views
  are replaced by a small confirmation message).

Shapes to reproduce: C1 < *CC2 < CC2 everywhere; the *CC2 overhead is larger
under workload A-Latest (high divergence, fewer confirmations possible) than
under workload B (low divergence, most finals collapse to confirmations).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List

from repro.bench.common import (
    DrainCheck,
    cassandra_config_for,
    make_generator_factory,
    make_kv_issue,
    run_until_settled,
)
from repro.core.cluster_spec import ClusterSpec
from repro.metrics.bandwidth import BandwidthProbe
from repro.metrics.summary import format_table
from repro.sim.topology import Region
from repro.workloads.runner import ClosedLoopRunner
from repro.workloads.ycsb import workload_by_name

if TYPE_CHECKING:  # pragma: no cover - the sweep engine loads on first run
    from repro.bench.sweep import SweepPoint


def _measure_bandwidth(system: str, workload_name: str, distribution: str,
                       threads: int, duration_ms: float, warmup_ms: float,
                       cooldown_ms: float, record_count: int,
                       seed: int) -> Dict:
    spec = workload_by_name(workload_name).with_distribution(distribution)
    drain = DrainCheck(f"fig08 {system} {workload_name}-{distribution}")
    scenario = ClusterSpec(
        seed=seed, record_count=record_count,
        client_regions=(Region.IRL, Region.FRK, Region.VRG),
        config=cassandra_config_for(system)).build()
    measured_client = scenario.client_in(Region.IRL)
    probe = BandwidthProbe(scenario.env.network,
                           client_names=[measured_client.name],
                           server_names=scenario.cluster.replica_names())
    probe.start()

    runners = {
        region: ClosedLoopRunner(
            scheduler=scenario.env.scheduler,
            issue=make_kv_issue(client, system),
            make_generator=make_generator_factory(
                spec, scenario.dataset, seed,
                f"fig08-{system}-{workload_name}-{distribution}-{region}"),
            threads=threads, duration_ms=duration_ms, warmup_ms=warmup_ms,
            cooldown_ms=cooldown_ms, label=f"fig08-{system}-{region}")
        for region, client in scenario.clients.items()}
    run_until_settled(scenario.env, runners.values(), 60_000.0)
    probe.stop()
    drain.verify(scenario.cluster)

    measured_runner = runners[Region.IRL]
    total_ops = measured_runner.result.total_ops
    return {
        "system": system,
        "workload": workload_name,
        "distribution": distribution,
        "kb_per_op": probe.kilobytes_per_op(total_ops),
        "ops": total_ops,
        "divergence_pct": measured_runner.result.divergence.divergence_percent(),
    }


def cells(configs: Iterable, systems: Iterable[str], **base: Any):
    """One cell per ((workload, distribution), system)."""
    return (({"workload": workload_name, "distribution": distribution,
              "system": system},
             dict(base, system=system, workload_name=workload_name,
                  distribution=distribution))
            for workload_name, distribution in configs
            for system in systems)


def run_fig08_point(point: SweepPoint) -> Dict:
    return _measure_bandwidth(**point.kwargs)


def merge_overheads(points: List[SweepPoint],
                    records: List[Dict]) -> List[Dict]:
    """Fill ``overhead_vs_c1_pct`` from each configuration's C1 baseline.

    Replicates the serial loop exactly: the baseline resets per (workload,
    distribution) group and systems measured before C1 report 0.0.
    """
    baseline_kb = None
    group = None
    for record in records:
        if (record["workload"], record["distribution"]) != group:
            group = (record["workload"], record["distribution"])
            baseline_kb = None
        if record["system"] == "C1":
            baseline_kb = record["kb_per_op"]
        if baseline_kb:
            record["overhead_vs_c1_pct"] = \
                100.0 * (record["kb_per_op"] / baseline_kb - 1.0)
        else:
            record["overhead_vs_c1_pct"] = 0.0
    return records


def format_fig08(records: List[Dict]) -> str:
    rows = [[r["workload"], r["distribution"], r["system"], r["kb_per_op"],
             r["overhead_vs_c1_pct"], r["divergence_pct"]] for r in records]
    return format_table(
        ["workload", "distribution", "system", "kB/op",
         "overhead vs C1 (%)", "divergence (%)"],
        rows,
        title="Figure 8 — client-replica bandwidth per operation")
