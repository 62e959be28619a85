"""Wall-clock performance harness for the simulator core.

Every figure harness runs on simulated time, so the paper's numbers never
depend on how fast the host executes events — but the *time to produce* a
figure does.  This module measures that: it drives representative scenarios
from the evaluation (the fig06 closed-loop YCSB load, the fig09 ZooKeeper
queue, and a fig13 fault script) on real wall-clock time and reports
events/second and operations/second for each.

Results accumulate in ``BENCH_perf.json`` at the repository root so the
project keeps a performance trajectory across PRs::

    python -m repro.bench perf                 # full scale, append an entry
    python -m repro.bench perf --quick         # small scale (CI smoke)
    python -m repro.bench perf --profile 25    # cProfile top-25 per scenario
    python -m repro.bench perf --check-regression   # gate: fail on >2x slowdown
    python -m repro.bench perf --jobs 4        # scenarios across 4 processes
    python -m repro.bench perf --show-budget   # committed vs fresh profile budget

The scenarios are deterministic: for a given scale the event and operation
counts never change, only the wall-clock time does.  Speedups are reported
against the oldest recorded entry at the same scale (the pre-optimization
baseline).  The ``fig06-sweep-serial``/``fig06-sweep-parallel`` pair runs
the same multi-point grid through :mod:`repro.bench.sweep` at one and two
worker processes; the ratio of their recorded wall times is the committed
multiprocess speedup of figure regeneration.
"""

from __future__ import annotations

import cProfile
import io
import json
import pstats
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.bench.common import (
    cassandra_config_for,
    make_generator_factory,
    make_kv_issue,
    run_multi_region_load,
)
from repro.bench.fig09_zk_latency import measure_enqueues
from repro.bench.sweep import (
    JobsSpec,
    SweepPoint,
    make_points,
    point_seed,
    pool_context,
    resolve_jobs,
    run_sweep,
)
from repro.cassandra_sim.config import CassandraConfig
from repro.core.cluster_spec import ClusterSpec
from repro.faults import FaultInjector, cassandra_aliases, get_scenario
from repro.sim.topology import Region
from repro.workloads.runner import ClosedLoopRunner
from repro.workloads.ycsb import workload_by_name

#: Default location of the perf trajectory, resolved against the cwd (the
#: repository root in CI and in the documented invocations).
DEFAULT_RESULTS_PATH = Path("BENCH_perf.json")

#: Wall-clock slack tolerated by ``--check-regression`` before failing.
REGRESSION_FACTOR = 2.0


# ---------------------------------------------------------------------------
# scenario implementations
# ---------------------------------------------------------------------------

def run_closed_loop_scenario(threads_per_client: int = 24,
                             duration_ms: float = 10_000.0,
                             warmup_ms: float = 2_000.0,
                             cooldown_ms: float = 1_000.0,
                             record_count: int = 1_000,
                             system: str = "CC2",
                             workload: str = "A",
                             seed: int = 42) -> Dict[str, int]:
    """fig06-style closed-loop YCSB load against Correctable Cassandra."""
    spec = workload_by_name(workload)
    scenario = ClusterSpec(
        seed=seed, record_count=record_count,
        client_regions=(Region.IRL, Region.FRK, Region.VRG),
        config=cassandra_config_for(system)).build()
    results = run_multi_region_load(
        scenario, system, spec, threads_per_client=threads_per_client,
        duration_ms=duration_ms, warmup_ms=warmup_ms,
        cooldown_ms=cooldown_ms, seed=seed)
    return {
        "events": scenario.env.scheduler.events_executed,
        "ops": sum(result.total_ops for result in results.values()),
    }


def run_zk_queue_scenario(samples: int = 600, seed: int = 7) -> Dict[str, int]:
    """fig09's follower-IRL / leader-VRG cell, ICG side: back-to-back
    enqueues completing into the harness's own sink."""
    run = measure_enqueues(Region.VRG, Region.IRL, icg=True, samples=samples,
                           seed=seed)
    return {"events": run["events"], "ops": run["final"]["count"]}


def run_fault_scenario(threads_per_client: int = 4,
                       duration_ms: float = 8_000.0,
                       warmup_ms: float = 2_000.0,
                       cooldown_ms: float = 500.0,
                       record_count: int = 300,
                       scenario_name: str = "replica-crash",
                       workload: str = "B",
                       seed: int = 42) -> Dict[str, int]:
    """fig13-style closed-loop load while a fault script injects failures."""
    spec = workload_by_name(workload).with_distribution("zipfian")
    built = ClusterSpec(
        seed=seed, record_count=record_count,
        client_regions=(Region.IRL, Region.FRK, Region.VRG),
        config=CassandraConfig.fault_tolerant(),
        client_fallbacks=True).build()
    injector = FaultInjector(built.env, schedule=get_scenario(scenario_name),
                             aliases=cassandra_aliases(built.cluster))
    runners: List[ClosedLoopRunner] = []
    for index, (region, client) in enumerate(built.clients.items()):
        runners.append(ClosedLoopRunner(
            scheduler=built.env.scheduler,
            issue=make_kv_issue(client, "CC2"),
            make_generator=make_generator_factory(
                spec, built.dataset, seed, f"perf-fault-{region}"),
            threads=threads_per_client,
            duration_ms=duration_ms,
            warmup_ms=warmup_ms,
            cooldown_ms=cooldown_ms,
            label=f"perf-fault-{region}",
            faults=injector if index == 0 else None,
        ))
    for runner in runners:
        runner.start()
    built.env.run(until=max(r.end_time for r in runners) + 60_000.0)
    return {
        "events": built.env.scheduler.events_executed,
        "ops": sum(r.result.total_ops for r in runners),
    }


def run_open_loop_scenario(binding: str = "cassandra",
                           rate_ops_s: float = 800.0,
                           policy: str = "queue",
                           sessions: int = 1_000,
                           max_in_flight: int = 16,
                           queue_limit: int = 64,
                           duration_ms: float = 12_000.0,
                           warmup_ms: float = 2_000.0,
                           cooldown_ms: float = 1_000.0,
                           record_count: int = 500,
                           seed: int = 42) -> Dict[str, int]:
    """fig14-style open-loop Poisson load past saturation, with admission.

    Exercises the load-engine paths the closed-loop scenario never touches:
    per-arrival scheduling, session round-robin over a large pool, the
    bounded in-flight admission queue, and queue-delay accounting.  The
    stack is the figure's own (:func:`~repro.bench.fig14_open_loop.
    build_session_stack` / :func:`~repro.bench.fig14_open_loop.
    open_loop_runner`), so this scenario always benchmarks exactly the
    configuration fig14 measures.
    """
    from repro.bench.fig14_open_loop import build_session_stack, open_loop_runner

    stack = build_session_stack(binding, seed=seed,
                                record_count=record_count, sessions=sessions)
    label = f"perf-open-loop-{binding}-{policy}-{rate_ops_s}"
    runner = open_loop_runner(
        stack, seed=seed, label=label, rate_ops_s=rate_ops_s,
        duration_ms=duration_ms, warmup_ms=warmup_ms,
        cooldown_ms=cooldown_ms, max_in_flight=max_in_flight,
        policy=policy, queue_limit=queue_limit)
    result = runner.run()
    return {
        "events": stack.env.scheduler.events_executed,
        "ops": result.total_ops,
    }


def run_txn_scenario(scenario_name: str = "coordinator-crash-mid-commit",
                     keys_per_txn: int = 2, nodes: int = 6,
                     coordinators: int = 2, rate_txn_s: float = 40.0,
                     duration_ms: float = 10_000.0,
                     fault_at_ms: float = 4_000.0,
                     fault_duration_ms: float = 4_000.0,
                     decision_log_ms: float = 2.0,
                     record_count: int = 200,
                     seed: int = 42) -> Dict[str, int]:
    """fig16-style 2PC transactions driven through a coordinator takeover.

    Exercises the transaction layer's hot paths end to end — prepare
    fan-out and vote collection, participant logging and locking, the
    heartbeat/election machinery, takeover log reconstruction, decision
    redelivery, and the client's balancer/backoff retries — and runs the
    atomicity audit before returning (a violation fails the scenario).
    """
    from repro.bench.fig16_txn import run_fig16_cell

    record, env = run_fig16_cell(
        scenario=scenario_name, keys_per_txn=keys_per_txn, nodes=nodes,
        coordinators=coordinators, rate_txn_s=rate_txn_s,
        duration_ms=duration_ms, fault_at_ms=fault_at_ms,
        fault_duration_ms=fault_duration_ms, decision_log_ms=decision_log_ms,
        record_count=record_count, seed=seed)
    return {"events": env.scheduler.events_executed,
            "ops": record["submitted"]}


def run_million_key_scenario(record_count: int = 1_000_000, nodes: int = 6,
                             rate_ops_s: float = 400.0, sessions: int = 200,
                             max_in_flight: int = 64, queue_limit: int = 256,
                             duration_ms: float = 4_000.0,
                             warmup_ms: float = 500.0,
                             cooldown_ms: float = 250.0,
                             event_at_ms: float = 1_500.0,
                             skew: str = "zipf-0.99",
                             seed: int = 42) -> Dict[str, int]:
    """fig15-style ring at million-key scale through a join.

    Preloads a million-key ring, runs an open-loop read/write mix while a
    node joins mid-run, then drains and audits the zero-lost-acked-writes
    invariant.  The measured wall covers dataset generation, the bulk
    preload, the rebalance run and the audit — the full million-key figure
    cost — so beside the whole-run rate the scenario reports one rate per
    phase: ``preload_keys_per_s`` (``cluster.preload`` alone),
    ``serve_events_per_s`` (first arrival to idle) and ``stream_keys_per_s``
    (keys streamed over the host time from the join's start to its
    announcement, foreground traffic served meanwhile included), with the
    walls behind them in ``phase_walls_s``.  ``keys`` in the result is the
    preloaded record count (so the committed trajectory records the scale
    next to the rate).
    """
    from repro.bench.fig15_rebalance import (
        CLIENT_REGIONS, count_lost_acked_writes, make_rebalance_issue,
        skew_workload)
    from repro.sim.rand import derive_rng
    from repro.sim.topology import round_robin_regions
    from repro.workloads.arrivals import make_arrival_process
    from repro.workloads.runner import OpenLoopRunner
    from repro.workloads.ycsb import OperationGenerator

    label = f"perf-million-key-{record_count}"
    clock = time.perf_counter
    started = clock()
    built = ClusterSpec(nodes=nodes, config=cassandra_config_for("CC2"),
                        seed=seed, record_count=record_count,
                        client_regions=CLIENT_REGIONS,
                        client_fallbacks=True, preload=False).build()
    cluster = built.cluster
    items = built.dataset.initial_items()
    built_at = clock()
    cluster.preload(items)
    loaded_at = clock()
    del items

    samples: List[Dict[str, Any]] = []
    acked: Dict[str, Any] = {}
    issue = make_rebalance_issue(
        [built.client_in(region) for region in CLIENT_REGIONS],
        built.env.scheduler.now, samples, acked)
    workload = skew_workload(skew, "A")
    runner = OpenLoopRunner(
        scheduler=built.env.scheduler, issue=issue,
        make_generator=lambda session_id: OperationGenerator.seeded(
            workload, built.dataset, seed, f"{label}-s{session_id}"),
        arrivals=make_arrival_process(
            "poisson", rate_ops_s, derive_rng(seed, f"{label}:arrivals")),
        sessions=sessions, duration_ms=duration_ms, warmup_ms=warmup_ms,
        cooldown_ms=cooldown_ms, label=label, max_in_flight=max_in_flight,
        policy="queue", queue_limit=queue_limit)
    joiner_region = round_robin_regions(nodes + 1)[-1]
    announced_at: List[float] = []
    operation = cluster.join_node(
        f"cassandra-{nodes}-{joiner_region}", joiner_region,
        at_ms=event_at_ms,
        on_complete=lambda _: announced_at.append(clock()))
    # runner.run(), cut at the join instant so the stream phase can be timed
    # (slicing a run moves no event).
    serving_at = clock()
    runner.start()
    built.env.run(until=event_at_ms)
    joining_at = clock()
    built.env.run(until=runner.end_time + runner.drain_ms)
    result = runner.result
    built.env.run_until_idle()
    idle_at = clock()
    if not operation.done:
        raise RuntimeError(f"{label}: join rebalance did not complete")
    lost = count_lost_acked_writes(cluster, acked)
    if lost:
        raise RuntimeError(f"{label}: {lost} acknowledged writes lost "
                           f"across the rebalance")
    walls = {"build": built_at - started,
             "preload": loaded_at - built_at,
             "serve": idle_at - serving_at,
             "stream": announced_at[0] - joining_at,
             "audit": clock() - idle_at}
    events = built.env.scheduler.events_executed
    keys_streamed = cluster.total("keys_streamed_in")
    return {
        "events": events,
        "ops": result.total_ops,
        "keys": record_count,
        "keys_streamed": keys_streamed,
        "preload_keys_per_s": round(record_count / walls["preload"], 1),
        "stream_keys_per_s": round(keys_streamed / walls["stream"], 1),
        "serve_events_per_s": round(events / walls["serve"], 1),
        "phase_walls_s": {phase: round(wall, 4)
                          for phase, wall in walls.items()},
    }


def _sweep_point(point: SweepPoint) -> Dict[str, int]:
    """One fig06-style grid cell: a full closed-loop sim, counted."""
    return run_closed_loop_scenario(**point.kwargs)


def build_sweep_scenario_points(systems: Sequence[str] = ("C1", "C2", "CC2"),
                                workloads: Sequence[str] = ("A", "B"),
                                thread_counts: Sequence[int] = (4,),
                                duration_ms: float = 8_000.0,
                                warmup_ms: float = 1_500.0,
                                cooldown_ms: float = 500.0,
                                record_count: int = 500,
                                seed: int = 42) -> List[SweepPoint]:
    """Each point's simulation seed is label-derived via ``point_seed``, so
    reordering or slicing the grid never changes any cell's numbers."""
    points = make_points("perf-fig06-sweep", (
        ({"system": system, "workload": workload, "threads": threads},
         dict(system=system, workload=workload, threads_per_client=threads,
              duration_ms=duration_ms, warmup_ms=warmup_ms,
              cooldown_ms=cooldown_ms, record_count=record_count))
        for workload in workloads
        for system in systems
        for threads in thread_counts))
    return [SweepPoint(index=point.index, family=point.family,
                       labels=point.labels,
                       kwargs={**point.kwargs,
                               "seed": point_seed(seed, point) % (2 ** 31)})
            for point in points]


def run_sweep_scenario(jobs: JobsSpec = 1,
                       systems: Sequence[str] = ("C1", "C2", "CC2"),
                       workloads: Sequence[str] = ("A", "B"),
                       thread_counts: Sequence[int] = (4,),
                       duration_ms: float = 8_000.0,
                       warmup_ms: float = 1_500.0,
                       cooldown_ms: float = 500.0,
                       record_count: int = 500,
                       seed: int = 42) -> Dict[str, Any]:
    """A multi-point fig06-style sweep through the sweep engine.

    Run at ``jobs=1`` and ``jobs=2`` as two scenarios, the recorded pair
    shows the multiprocess speedup of figure regeneration; the event and
    operation totals are identical at any job count (determinism).  Beyond
    events/ops the scenario reports per-point wall timings, which land in
    ``BENCH_perf.json``.
    """
    points = build_sweep_scenario_points(
        systems=systems, workloads=workloads, thread_counts=thread_counts,
        duration_ms=duration_ms, warmup_ms=warmup_ms, cooldown_ms=cooldown_ms,
        record_count=record_count, seed=seed)
    sweep = run_sweep(points, _sweep_point, jobs=jobs)
    records = sweep.records()
    return {
        "events": sum(record["events"] for record in records),
        "ops": sum(record["ops"] for record in records),
        "points": len(records),
        "sweep_jobs": sweep.jobs,
        "sweep_wall_s": round(sweep.wall_s, 4),
        "point_walls_s": [round(outcome.wall_s, 4)
                          for outcome in sweep.outcomes],
    }


#: scenario name -> (callable, full-scale kwargs, quick kwargs).
PERF_SCENARIOS: Dict[str, tuple] = {
    "fig06-closed-loop": (
        run_closed_loop_scenario,
        dict(threads_per_client=48, duration_ms=30_000.0,
             warmup_ms=5_000.0, cooldown_ms=2_000.0, record_count=1_000),
        dict(threads_per_client=8, duration_ms=8_000.0, warmup_ms=1_500.0,
             cooldown_ms=500.0, record_count=500),
    ),
    "fig09-zk-queue": (
        run_zk_queue_scenario,
        dict(samples=3_000),
        dict(samples=1_500),
    ),
    "fig13-replica-crash": (
        run_fault_scenario,
        dict(threads_per_client=8, duration_ms=20_000.0,
             warmup_ms=3_000.0, cooldown_ms=1_000.0, record_count=300),
        dict(threads_per_client=4, duration_ms=10_000.0, warmup_ms=2_000.0,
             cooldown_ms=500.0, record_count=300),
    ),
    "fig14-open-loop": (
        run_open_loop_scenario,
        dict(rate_ops_s=800.0, sessions=1_000, duration_ms=20_000.0,
             warmup_ms=3_000.0, cooldown_ms=1_000.0, record_count=500),
        dict(rate_ops_s=400.0, sessions=200, duration_ms=8_000.0,
             warmup_ms=1_500.0, cooldown_ms=500.0, record_count=200),
    ),
    "fig16-txn": (
        run_txn_scenario,
        dict(keys_per_txn=3, nodes=6, rate_txn_s=80.0,
             duration_ms=20_000.0, fault_at_ms=6_000.0,
             fault_duration_ms=6_000.0, record_count=300),
        dict(keys_per_txn=2, nodes=3, rate_txn_s=40.0,
             duration_ms=8_000.0, fault_at_ms=3_000.0,
             fault_duration_ms=3_000.0, record_count=150),
    ),
    # Million-key storage end to end: a million-key (quick: 150k) preload,
    # an open-loop run through a live join, and the lost-acked-writes
    # audit.  The floor on this scenario perf-gates the whole storage
    # path — bulk preload included.
    "fig15-million-key": (
        run_million_key_scenario,
        dict(record_count=1_000_000, rate_ops_s=400.0,
             duration_ms=4_000.0, event_at_ms=1_500.0),
        dict(record_count=150_000, rate_ops_s=300.0, sessions=100,
             duration_ms=2_500.0, warmup_ms=400.0, cooldown_ms=200.0,
             event_at_ms=1_000.0),
    ),
    # The serial/parallel pair measures the sweep engine itself: identical
    # grids, identical event totals, only the job count differs — their
    # wall-clock ratio is the committed multiprocess speedup (on a
    # multi-core host; a single-core runner shows ~1x plus fork overhead).
    "fig06-sweep-serial": (
        run_sweep_scenario,
        dict(jobs=1),
        dict(jobs=1, systems=("C1", "CC2"), workloads=("A",),
             thread_counts=(2,), duration_ms=4_000.0, warmup_ms=1_000.0,
             cooldown_ms=500.0, record_count=300),
    ),
    "fig06-sweep-parallel": (
        run_sweep_scenario,
        dict(jobs=2),
        dict(jobs=2, systems=("C1", "CC2"), workloads=("A",),
             thread_counts=(2,), duration_ms=4_000.0, warmup_ms=1_000.0,
             cooldown_ms=500.0, record_count=300),
    ),
}


def scenario_names() -> Sequence[str]:
    return tuple(PERF_SCENARIOS)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _measure(fn: Callable[..., Dict[str, Any]], kwargs: Dict[str, Any],
             repeats: int) -> Dict[str, Any]:
    """Run ``fn`` ``repeats`` times; report the best wall-clock time.

    Any extra keys the scenario returns besides ``events``/``ops`` (e.g. the
    sweep scenarios' point count and per-point wall timings) are passed
    through into the recorded stats, taken from the same repeat that
    produced the reported best wall time so the recorded numbers are
    internally consistent.
    """
    walls: List[float] = []
    runs: List[Dict[str, Any]] = []
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        runs.append(fn(**kwargs))
        walls.append(time.perf_counter() - start)
    best = min(walls)
    counts = runs[walls.index(best)]
    stats = {
        "wall_s": round(best, 4),
        "runs_s": [round(w, 4) for w in walls],
        "events": counts["events"],
        "ops": counts["ops"],
        "events_per_s": round(counts["events"] / best, 1),
        "ops_per_s": round(counts["ops"] / best, 1),
    }
    stats.update({key: value for key, value in counts.items()
                  if key not in ("events", "ops")})
    return stats


#: Subsystem buckets for the profile budget table, matched in order against
#: each profiled function's source path (first hit wins, so the specific
#: ``sim/`` files route to scheduler/network before the generic protocol
#: bucket picks up the rest of ``repro/``).  Everything outside the package
#: (stdlib, builtins, the bench harness itself) lands in "other".
_BUDGET_BUCKETS: Sequence[tuple] = (
    ("scheduler", ("repro/sim/scheduler.py", "repro/sim/clock.py")),
    ("network", ("repro/sim/network.py", "repro/sim/topology.py",
                 "repro/sim/node.py")),
    ("workload", ("repro/workloads/",)),
    ("metrics", ("repro/metrics/",)),
    ("protocol", ("repro/cassandra_sim/", "repro/zookeeper_sim/",
                  "repro/txn/", "repro/bindings/", "repro/core/",
                  "repro/faults", "repro/sim/")),
)


def _budget_bucket(filename: str) -> str:
    path = filename.replace("\\", "/")
    for bucket, needles in _BUDGET_BUCKETS:
        for needle in needles:
            if needle in path:
                return bucket
    return "other"


def budget_from_profiler(profiler: cProfile.Profile) -> Dict[str, Any]:
    """Aggregate a profile into per-subsystem self-time shares.

    Shares are fractions of the profiled run's total self time, so they
    stay comparable across hosts and scales even though cProfile inflates
    absolute wall time.  Persisted per scenario in BENCH_perf.json so a
    future regression names its subsystem, not just its magnitude.
    """
    totals: Dict[str, float] = {bucket: 0.0 for bucket, _ in _BUDGET_BUCKETS}
    totals["other"] = 0.0
    stats = pstats.Stats(profiler)
    grand = 0.0
    for (filename, _lineno, _name), (_cc, _nc, tt, _ct, _callers) \
            in stats.stats.items():  # type: ignore[attr-defined]
        totals[_budget_bucket(filename)] += tt
        grand += tt
    budget = {"profiled_s": round(grand, 4)}
    budget["shares"] = {
        bucket: round(seconds / grand, 4) if grand > 0 else 0.0
        for bucket, seconds in totals.items()}
    return budget


def format_budget(name: str, budget: Dict[str, Any]) -> str:
    """Render one scenario's budget table (shares of profiled self time)."""
    from repro.metrics.summary import format_table

    shares = budget["shares"]
    order = [bucket for bucket, _ in _BUDGET_BUCKETS] + ["other"]
    rows = [[bucket, f"{shares[bucket] * 100.0:.1f}%",
             round(shares[bucket] * budget["profiled_s"], 3)]
            for bucket in order]
    return format_table(
        ["subsystem", "share", "self (s)"], rows,
        title=f"Profile budget: {name} ({budget['profiled_s']:.2f}s "
              f"profiled self time)")


def format_budget_comparison(name: str, fresh: Dict[str, Any],
                             committed: Optional[Dict[str, Any]]) -> str:
    """Render one scenario's fresh profile next to its committed budget.

    The delta column is in percentage points of profiled self time — the
    same units :func:`check_budget_drift` gates on — so a reviewer can read
    how far a scenario sits from tripping the drift allowance before
    committing a re-recorded entry.
    """
    from repro.metrics.summary import format_table

    order = [bucket for bucket, _ in _BUDGET_BUCKETS] + ["other"]
    rows = []
    for bucket in order:
        share = fresh["shares"].get(bucket, 0.0)
        if committed is None:
            rows.append([bucket, "-", f"{share * 100.0:.1f}%", "-"])
            continue
        ref = committed["shares"].get(bucket, 0.0)
        rows.append([bucket, f"{ref * 100.0:.1f}%", f"{share * 100.0:.1f}%",
                     f"{(share - ref) * 100.0:+.1f}"])
    title = f"Budget vs committed: {name}"
    if committed is None:
        title += " (no committed budget at this scale — fresh only)"
    return format_table(["subsystem", "committed", "fresh", "delta (pts)"],
                        rows, title=title)


#: Scenario executions accumulated into one profiler per scenario.  A
#: single pass gives shares noisy enough (several points run-to-run on the
#: sub-second quick scenarios) to trip the 10-point drift gate on jitter;
#: three passes through the same profiler average the shares at negligible
#: cost (the profiled pass is already separate from the timed repeats).
_PROFILE_PASSES = 3


def _profile(fn: Callable[..., Dict[str, int]], kwargs: Dict[str, Any],
             top: int) -> tuple:
    """Profiled runs (accumulated); returns ``(top-N text, budget)``."""
    profiler = cProfile.Profile()
    for _ in range(_PROFILE_PASSES):
        profiler.enable()
        fn(**kwargs)
        profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)
    return buffer.getvalue(), budget_from_profiler(profiler)


def run_perf(scenarios: Optional[Sequence[str]] = None, quick: bool = False,
             repeats: int = 3, profile_top: int = 0,
             seed: Optional[int] = None, jobs: JobsSpec = 1,
             collect_budget: bool = False,
             echo: Callable[[str], None] = print) -> Dict[str, Any]:
    """Measure every requested scenario; returns the scenario -> stats map.

    ``seed`` overrides each scenario's default seed; note that the recorded
    event/ops counts are seed-specific, so gate comparisons only make sense
    between runs at the same seed (the default).

    ``jobs`` fans whole scenarios across worker processes (each scenario's
    repeats stay inside one worker).  Co-scheduled scenarios contend for
    cores, so per-scenario wall times are only comparable between runs at
    the same ``jobs``; the trajectory records the job count per entry for
    exactly that reason.  Profiling (``profile_top`` or ``collect_budget``)
    forces serial execution.

    ``collect_budget`` records each scenario's ``profile_budget`` even when
    ``profile_top`` is 0, without printing the top-N listing or the budget
    table — the ``--show-budget`` comparison does its own rendering.
    """
    jobs = resolve_jobs(jobs)
    names = list(scenarios) if scenarios else list(PERF_SCENARIOS)
    tasks: List[tuple] = []
    for name in names:
        if name not in PERF_SCENARIOS:
            raise KeyError(f"unknown perf scenario {name!r}; "
                           f"choose from {list(PERF_SCENARIOS)}")
        fn, full_kwargs, quick_kwargs = PERF_SCENARIOS[name]
        kwargs = dict(quick_kwargs if quick else full_kwargs)
        if seed is not None:
            kwargs["seed"] = seed
        tasks.append((name, fn, kwargs))
    measured: Dict[str, Any] = {}
    if jobs == 1 or profile_top > 0 or collect_budget or len(tasks) <= 1:
        for name, fn, kwargs in tasks:
            measured[name] = _measure(fn, kwargs, repeats)
            if profile_top > 0 or collect_budget:
                # The profiled run is separate from the timed repeats, so
                # wall_s stays uninstrumented; only the budget shares (which
                # are host- and overhead-insensitive ratios) are recorded.
                text, budget = _profile(fn, kwargs, max(profile_top, 1))
                measured[name]["profile_budget"] = budget
                if profile_top > 0:
                    echo(f"--- cProfile top {profile_top}: {name} ---")
                    echo(text)
                    echo(format_budget(name, budget))
        return measured
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks)),
                             mp_context=pool_context()) as pool:
        futures = [(name, pool.submit(_measure, fn, kwargs, repeats))
                   for name, fn, kwargs in tasks]
        for name, future in futures:
            measured[name] = future.result()
    return measured


# ---------------------------------------------------------------------------
# trajectory persistence (BENCH_perf.json)
# ---------------------------------------------------------------------------

def load_trajectory(path: Path = DEFAULT_RESULTS_PATH) -> Dict[str, Any]:
    if path.exists():
        return json.loads(path.read_text(encoding="utf-8"))
    return {"schema": 1, "entries": []}


def save_trajectory(trajectory: Dict[str, Any],
                    path: Path = DEFAULT_RESULTS_PATH) -> None:
    path.write_text(json.dumps(trajectory, indent=2) + "\n", encoding="utf-8")


def baseline_entry(trajectory: Dict[str, Any],
                   quick: bool) -> Optional[Dict[str, Any]]:
    """The oldest entry at the same scale: the pre-optimization baseline."""
    for entry in trajectory.get("entries", []):
        if entry.get("quick") == quick:
            return entry
    return None


def latest_entry(trajectory: Dict[str, Any],
                 quick: bool) -> Optional[Dict[str, Any]]:
    """The newest committed entry at the same scale."""
    for entry in reversed(trajectory.get("entries", [])):
        if entry.get("quick") == quick:
            return entry
    return None


def gate_reference(trajectory: Dict[str, Any], quick: bool, jobs: int = 1,
                   measured: Optional[Dict[str, Any]] = None
                   ) -> Optional[Dict[str, Any]]:
    """Per-scenario best (min wall_s) committed stats comparable to this run.

    The regression gate used to compare against the *last* committed entry,
    which meant one slow recorded run (a loaded CI host) permanently
    loosened the gate.  Instead, take the fastest committed wall time per
    scenario among comparable entries: same scale (``quick``), same
    cross-scenario job count, and — when ``measured`` is given — the same
    deterministic event count as the run being gated, so stale entries from
    an old scenario scale or a seed-overridden run never become (or poison)
    the reference.  A scenario with committed history but no event-count
    match falls back to its newest committed stats, which makes
    :func:`check_regression` fail loudly on the drift instead of reporting
    a missing reference.  Returns ``None`` when no comparable entry exists.
    """
    entries = [entry for entry in trajectory.get("entries", [])
               if entry.get("quick") == quick
               and entry.get("jobs", 1) == jobs]
    if not entries:
        return None
    best: Dict[str, Any] = {}
    newest: Dict[str, Any] = {}
    for entry in entries:
        for name, stats in entry.get("scenarios", {}).items():
            newest[name] = stats
            if measured is not None:
                run = measured.get(name)
                if run is None or stats.get("events") != run.get("events"):
                    continue
            if name not in best or stats["wall_s"] < best[name]["wall_s"]:
                best[name] = stats
    return {"label": "best committed per scenario",
            "scenarios": {name: best.get(name, stats)
                          for name, stats in newest.items()}}


def append_entry(trajectory: Dict[str, Any], label: str, quick: bool,
                 measured: Dict[str, Any], jobs: int = 1) -> Dict[str, Any]:
    entry = {
        "label": label,
        "quick": quick,
        "jobs": jobs,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": sys.version.split()[0],
        "scenarios": measured,
    }
    trajectory.setdefault("entries", []).append(entry)
    return entry


def format_perf(measured: Dict[str, Any],
                baseline: Optional[Dict[str, Any]] = None) -> str:
    """Render the measurements (with speedups when a baseline exists)."""
    from repro.metrics.summary import format_table

    rows = []
    for name, stats in measured.items():
        speedup = "-"
        if baseline is not None:
            ref = baseline.get("scenarios", {}).get(name)
            if ref and stats["wall_s"] > 0:
                speedup = f"{ref['wall_s'] / stats['wall_s']:.2f}x"
        rows.append([name, stats["wall_s"], stats["events"],
                     stats["events_per_s"], stats["ops"], stats["ops_per_s"],
                     speedup])
    title = "Simulator core performance (wall-clock)"
    if baseline is not None:
        title += f" — speedup vs '{baseline.get('label', 'baseline')}'"
    table = format_table(
        ["scenario", "wall (s)", "events", "events/s", "ops", "ops/s",
         "speedup"],
        rows, title=title)
    # Footer: the phases of the scenarios whose whole-run rate mixes set-up
    # with serving (build → preload → serve, the join's stream inside it).
    phases = [f"  {name}: preload {stats['preload_keys_per_s']:,.0f} keys/s, "
              f"stream {stats['stream_keys_per_s']:,.0f} keys/s, "
              f"serve {stats['serve_events_per_s']:,.0f} events/s  ("
              + ", ".join(f"{phase} {wall:.2f} s" for phase, wall
                          in stats["phase_walls_s"].items()) + ")"
              for name, stats in measured.items()
              if stats.get("phase_walls_s")]
    if phases:
        table += "\nphases:\n" + "\n".join(phases)
    return table


def check_regression(measured: Dict[str, Any], committed: Dict[str, Any],
                     factor: float = REGRESSION_FACTOR,
                     echo: Callable[[str], None] = print) -> bool:
    """True when every scenario stays within ``factor`` of the committed entry.

    Fails loudly — never silently — when a measured scenario has no
    committed reference (a renamed/added scenario needs a re-recorded
    baseline) or when the deterministic event count diverges from the
    committed one (the scenario's scale changed, or determinism broke:
    either way the wall-clock comparison would be meaningless).
    """
    ok = True
    compared = 0
    for name, stats in measured.items():
        ref = committed.get("scenarios", {}).get(name)
        if ref is None:
            echo(f"perf-gate {name}: no committed reference for this "
                 f"scenario — record a new baseline entry ... FAIL")
            ok = False
            continue
        compared += 1
        if ref.get("events") is not None and stats["events"] != ref["events"]:
            echo(f"perf-gate {name}: event count {stats['events']} != "
                 f"committed {ref['events']} (scenario scale or determinism "
                 f"changed; re-record the baseline) ... FAIL")
            ok = False
            continue
        limit = ref["wall_s"] * factor
        verdict = "ok" if stats["wall_s"] <= limit else "REGRESSION"
        if stats["wall_s"] > limit:
            ok = False
        echo(f"perf-gate {name}: {stats['wall_s']:.3f}s vs committed "
             f"{ref['wall_s']:.3f}s (limit {limit:.3f}s) ... {verdict}")
    if compared == 0 and not measured:
        echo("perf-gate: nothing measured ... FAIL")
        ok = False
    return ok


#: Percentage points a subsystem's self-time share may grow versus the best
#: committed budget before ``--budget-drift`` fails.
BUDGET_DRIFT_POINTS = 10.0


def budget_reference(trajectory: Dict[str, Any], quick: bool, jobs: int = 1,
                     measured: Optional[Dict[str, Any]] = None
                     ) -> Dict[str, Any]:
    """Per-scenario committed profile budget to gate drift against.

    Among comparable committed entries (same scale, same job count,
    matching event count when ``measured`` is given) that recorded a
    ``profile_budget``, take the **latest** — unlike the wall gate, which
    keys off the fastest entry so a slow recorded run can never loosen
    it, the budget gate tracks the *intended* shape of the code, and an
    optimization PR legitimately redistributes shares: committing its
    re-recorded entry is how the new shape is ratified.  (Shares are
    host-insensitive, so "latest" costs nothing in stability; walls are
    not, which is why the wall gate keeps min-wall semantics.)  Scenarios
    with no committed budget are absent from the result (the drift check
    reports them as unarmed).
    """
    latest: Dict[str, Any] = {}
    for entry in trajectory.get("entries", []):
        if entry.get("quick") != quick or entry.get("jobs", 1) != jobs:
            continue
        for name, stats in entry.get("scenarios", {}).items():
            if stats.get("profile_budget") is None:
                continue
            if measured is not None:
                run = measured.get(name)
                if run is None or stats.get("events") != run.get("events"):
                    continue
            latest[name] = stats
    return {name: stats["profile_budget"] for name, stats in latest.items()}


def check_budget_drift(measured: Dict[str, Any],
                       references: Dict[str, Any],
                       max_points: float = BUDGET_DRIFT_POINTS,
                       echo: Callable[[str], None] = print) -> bool:
    """True when no subsystem's self-time share grew > ``max_points``.

    Compares each measured scenario's profiled per-subsystem shares (see
    :func:`budget_from_profiler`) against the committed reference budget.
    A share that *shrinks* never fails; growth beyond the allowance means
    one subsystem is quietly re-absorbing the wall time an optimization
    PR removed, even if total wall still passes the coarser gates.
    Scenarios measured without a budget (run without ``--profile``) or
    with no committed reference are reported but do not fail — the first
    recorded entry arms the gate for the next run.
    """
    ok = True
    for name, stats in measured.items():
        budget = stats.get("profile_budget")
        if budget is None:
            echo(f"budget-drift {name}: no profiled budget in this run "
                 f"(use --profile) ... SKIP")
            continue
        reference = references.get(name)
        if reference is None:
            echo(f"budget-drift {name}: no committed budget reference — "
                 f"this entry arms the gate ... SKIP")
            continue
        worst_bucket, worst = None, 0.0
        for bucket, share in budget["shares"].items():
            drift = (share - reference["shares"].get(bucket, 0.0)) * 100.0
            if drift > worst:
                worst_bucket, worst = bucket, drift
        verdict = "ok" if worst <= max_points else "DRIFT"
        if worst > max_points:
            ok = False
        detail = (f"worst {worst_bucket} +{worst:.1f} points"
                  if worst_bucket else "no subsystem grew")
        echo(f"budget-drift {name}: {detail} "
             f"(allowance {max_points:.0f}) ... {verdict}")
    return ok


def parse_floor_specs(specs: Optional[Sequence[str]]) -> Dict[str, float]:
    """Parse repeatable ``scenario=events_per_s`` floor specs."""
    floors: Dict[str, float] = {}
    for spec in specs or ():
        name, _, value = spec.partition("=")
        if not value:
            raise ValueError(
                f"bad floor spec {spec!r}; expected scenario=events_per_s")
        if name not in PERF_SCENARIOS:
            raise ValueError(f"unknown perf scenario in floor spec {spec!r}; "
                             f"choose from {list(PERF_SCENARIOS)}")
        floors[name] = float(value)
    return floors


def check_floors(measured: Dict[str, Any], floors: Dict[str, float],
                 echo: Callable[[str], None] = print) -> bool:
    """True when every floored scenario meets its absolute events/s floor.

    Unlike the relative regression gate (which only catches a >2x slide
    against committed history), the floor pins a hard minimum event rate so
    a sequence of small regressions can never silently erode the fast path.
    """
    ok = True
    for name, floor in floors.items():
        stats = measured.get(name)
        if stats is None:
            echo(f"perf-floor {name}: scenario not measured ... FAIL")
            ok = False
            continue
        rate = stats["events_per_s"]
        verdict = "ok" if rate >= floor else "TOO SLOW"
        if rate < floor:
            ok = False
        echo(f"perf-floor {name}: {rate:,.0f} events/s vs floor "
             f"{floor:,.0f} ... {verdict}")
    return ok


def main_perf(quick: bool = False, repeats: int = 3, profile_top: int = 0,
              label: Optional[str] = None,
              scenarios: Optional[Sequence[str]] = None,
              output: Optional[str] = None, save: bool = True,
              regression_gate: bool = False,
              events_floors: Optional[Sequence[str]] = None,
              budget_drift: bool = False, show_budget: bool = False,
              seed: Optional[int] = None, jobs: JobsSpec = 1) -> int:
    """Entry point behind ``python -m repro.bench perf``."""
    jobs = resolve_jobs(jobs)
    if budget_drift and profile_top <= 0:
        print("error: --budget-drift needs --profile N (the drift check "
              "compares profiled subsystem shares)", file=sys.stderr)
        return 2
    path = Path(output) if output else DEFAULT_RESULTS_PATH
    floors = parse_floor_specs(events_floors)
    trajectory = load_trajectory(path)
    measured = run_perf(scenarios=scenarios, quick=quick, repeats=repeats,
                        profile_top=profile_top, seed=seed, jobs=jobs,
                        collect_budget=show_budget)
    committed = gate_reference(trajectory, quick, jobs=jobs,
                               measured=measured)
    print(format_perf(measured, baseline=baseline_entry(trajectory, quick)))
    if show_budget:
        budget_refs = budget_reference(trajectory, quick, jobs=jobs,
                                       measured=measured)
        for name, stats in measured.items():
            fresh = stats.get("profile_budget")
            if fresh is not None:
                print(format_budget_comparison(name, fresh,
                                               budget_refs.get(name)))
    gate_ok = True
    if regression_gate:
        if committed is None:
            print(f"perf-gate: no committed entry at this scale in {path}; "
                  "record a baseline first ... FAIL")
            gate_ok = False
        else:
            gate_ok = check_regression(measured, committed)
    if floors and not check_floors(measured, floors):
        gate_ok = False
    if budget_drift and not check_budget_drift(
            measured, budget_reference(trajectory, quick, jobs=jobs,
                                       measured=measured)):
        gate_ok = False
    # Recording composes with the gate so CI can gate and upload the very
    # numbers it gated in one measurement pass.
    if save:
        append_entry(trajectory,
                     label or ("quick" if quick else "full"),
                     quick, measured, jobs=jobs)
        save_trajectory(trajectory, path)
        print(f"appended entry to {path}")
    return 0 if gate_ok else 1
