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

from typing import Dict, Iterable, List

from repro.bench.common import (
    DrainCheck,
    build_cassandra_scenario,
    cassandra_config_for,
    make_generator_factory,
    make_kv_issue,
)
from repro.bench.sweep import JobsSpec, SweepPoint, make_points, run_sweep
from repro.metrics.bandwidth import BandwidthProbe
from repro.metrics.summary import format_table
from repro.sim.topology import Region
from repro.workloads.runner import ClosedLoopRunner
from repro.workloads.ycsb import workload_by_name

DEFAULT_SYSTEMS = ("C1", "CC2", "*CC2")
DEFAULT_CONFIGS = (("A", "latest"), ("A", "zipfian"),
                   ("B", "latest"), ("B", "zipfian"))


def _measure_bandwidth(system: str, workload_name: str, distribution: str,
                       threads: int, duration_ms: float, warmup_ms: float,
                       cooldown_ms: float, record_count: int,
                       seed: int) -> Dict:
    spec = workload_by_name(workload_name).with_distribution(distribution)
    drain = DrainCheck(f"fig08 {system} {workload_name}-{distribution}")
    scenario = build_cassandra_scenario(
        seed=seed, record_count=record_count,
        client_regions=(Region.IRL, Region.FRK, Region.VRG),
        config=cassandra_config_for(system))
    measured_client = scenario.client_in(Region.IRL)
    probe = BandwidthProbe(scenario.env.network,
                           client_names=[measured_client.name],
                           server_names=scenario.cluster.replica_names())
    probe.start()

    runners = []
    for region, client in scenario.clients.items():
        runner = ClosedLoopRunner(
            scheduler=scenario.env.scheduler,
            issue=make_kv_issue(client, system),
            make_generator=make_generator_factory(
                spec, scenario.dataset, seed,
                f"fig08-{system}-{workload_name}-{distribution}-{region}"),
            threads=threads, duration_ms=duration_ms, warmup_ms=warmup_ms,
            cooldown_ms=cooldown_ms, label=f"fig08-{system}-{region}")
        runners.append((region, runner))
    for _, runner in runners:
        runner.start()
    end = max(runner.end_time for _, runner in runners)
    scenario.env.run(until=end + 60_000.0)
    probe.stop()
    drain.verify(scenario.cluster)

    measured_runner = dict(runners)[Region.IRL]
    total_ops = measured_runner.result.total_ops
    return {
        "system": system,
        "workload": workload_name,
        "distribution": distribution,
        "kb_per_op": probe.kilobytes_per_op(total_ops),
        "ops": total_ops,
        "divergence_pct": measured_runner.result.divergence.divergence_percent(),
    }


def build_fig08_points(systems: Iterable[str] = DEFAULT_SYSTEMS,
                       configs: Iterable = DEFAULT_CONFIGS, threads: int = 10,
                       duration_ms: float = 8_000.0,
                       warmup_ms: float = 2_000.0,
                       cooldown_ms: float = 1_000.0,
                       record_count: int = 1_000,
                       seed: int = 42) -> List[SweepPoint]:
    """One sweep point per ((workload, distribution), system) cell."""
    return make_points("fig08", (
        ({"workload": workload_name, "distribution": distribution,
          "system": system},
         dict(system=system, workload_name=workload_name,
              distribution=distribution, threads=threads,
              duration_ms=duration_ms, warmup_ms=warmup_ms,
              cooldown_ms=cooldown_ms, record_count=record_count, seed=seed))
        for workload_name, distribution in configs
        for system in systems))


def run_fig08_point(point: SweepPoint) -> Dict:
    return _measure_bandwidth(**point.kwargs)


def _merge_overheads(records: List[Dict]) -> List[Dict]:
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


def run_fig08(systems: Iterable[str] = DEFAULT_SYSTEMS,
              configs: Iterable = DEFAULT_CONFIGS, threads: int = 10,
              duration_ms: float = 8_000.0, warmup_ms: float = 2_000.0,
              cooldown_ms: float = 1_000.0, record_count: int = 1_000,
              seed: int = 42, jobs: JobsSpec = 1) -> List[Dict]:
    """Regenerate the Figure 8 bandwidth comparison.

    Returns one record per (workload, distribution, system) with the average
    kB per operation on the measured client's links and, for convenience, the
    relative overhead versus the C1 baseline of the same configuration.
    """
    points = build_fig08_points(
        systems=systems, configs=configs, threads=threads,
        duration_ms=duration_ms, warmup_ms=warmup_ms, cooldown_ms=cooldown_ms,
        record_count=record_count, seed=seed)
    return _merge_overheads(run_sweep(points, run_fig08_point, jobs=jobs)
                            .records())


def format_fig08(records: List[Dict]) -> str:
    rows = [[r["workload"], r["distribution"], r["system"], r["kb_per_op"],
             r["overhead_vs_c1_pct"], r["divergence_pct"]] for r in records]
    return format_table(
        ["workload", "distribution", "system", "kB/op",
         "overhead vs C1 (%)", "divergence (%)"],
        rows,
        title="Figure 8 — client-replica bandwidth per operation")
