"""Determinism regression tests guarding the simulator fast path.

The golden fingerprints in ``data/determinism_golden.json`` were recorded on
the pre-optimization simulator core: they hash the exact event execution
order of a closed-loop run and the rendered figure reports for fixed seeds.
Any rewrite of the scheduler/network/metrics hot path must keep every hash
bit-identical — same events in the same order, same figure numbers.

Regenerate only when *intentionally* changing simulation behaviour::

    PYTHONPATH=src python tests/bench/test_determinism.py --regenerate
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pathlib
from typing import Dict, Iterable, List

import pytest

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "determinism_golden.json"


def _sha(parts: Iterable) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def trace_fingerprint() -> Dict[str, object]:
    """Event-trace + metrics fingerprint of a small closed-loop CC2 run."""
    from repro.bench.common import cassandra_config_for, run_multi_region_load
    from repro.core.cluster_spec import ClusterSpec
    from repro.sim.topology import Region
    from repro.workloads.ycsb import workload_by_name

    scenario = ClusterSpec(
        seed=11, record_count=60,
        client_regions=(Region.IRL, Region.FRK),
        config=cassandra_config_for("CC2")).build()
    trace = scenario.env.scheduler.start_trace()
    results = run_multi_region_load(
        scenario, "CC2", workload_by_name("A"), threads_per_client=2,
        duration_ms=2_500.0, warmup_ms=500.0, cooldown_ms=250.0, seed=11)
    summaries = [results[region].summary() for region in sorted(results)]
    return {
        "events": scenario.env.scheduler.events_executed,
        "messages": scenario.env.network.messages_sent,
        "total_bytes": scenario.env.network.total_bytes(),
        "trace_sha256": _sha(trace),
        "summary_sha256": _sha(summaries),
    }


def figure_fingerprints(jobs: int = 1) -> Dict[str, str]:
    """Hashes of the rendered reports (fixed seeds): every figure the CLI
    regenerates at quick scale, and the three ablations at the scale of
    their committed tables, keyed by sweep family.

    ``jobs`` routes the regeneration through the parallel sweep executor;
    the hashes must be identical at any job count (the sweep engine merges
    worker records in grid order).
    """
    from repro.bench.cli import figure_names, run_figure
    from repro.bench.figures import ABLATIONS

    out = {name: _sha([run_figure(name, quick=True, jobs=jobs)])
           for name in figure_names()}
    out.update((figure.family, _sha([figure.render(figure.run(jobs=jobs))]))
               for figure in ABLATIONS)
    return out


#: Quick slice of the six Cassandra fig13 scenarios (faults start at 3-4 s).
FIG13_SCENARIOS = ("baseline", "replica-crash", "wan-partition",
                   "flapping-link", "slow-follower", "degraded-link")
FIG13_SLICE = dict(workload="A", threads_per_client=2, duration_ms=9_000.0,
                   warmup_ms=1_500.0, cooldown_ms=500.0, record_count=150,
                   seed=42)


def _traced_schedulers():
    from zk_slices import traced_schedulers

    return traced_schedulers()


def rebalance_cell() -> Dict[str, object]:
    """fig15's open loop over two clients with fallback contacts while a
    node joins and then a *client contact* is decommissioned: forwarded
    writes, stale-epoch retries, and "left the ring" contact rotation."""
    from dataclasses import replace

    from repro.bench.common import cassandra_config_for
    from repro.bench.fig15_rebalance import (
        CLIENT_REGIONS, count_lost_acked_writes, make_rebalance_issue,
        skew_workload)
    from repro.core.cluster_spec import ClusterSpec
    from repro.sim.rand import derive_rng
    from repro.sim.topology import round_robin_regions
    from repro.workloads.arrivals import make_arrival_process
    from repro.workloads.runner import OpenLoopRunner
    from repro.workloads.ycsb import OperationGenerator

    nodes, seed = 6, 42
    built = ClusterSpec(
        nodes=nodes, seed=seed, record_count=600, vnodes_per_node=8,
        config=replace(cassandra_config_for("CC2"), stream_batch_items=16),
        client_regions=CLIENT_REGIONS, client_fallbacks=True).build()
    cluster = built.cluster
    samples: List[Dict] = []
    acked: Dict[str, object] = {}
    workload = skew_workload("zipf-0.99", "A")
    runner = OpenLoopRunner(
        scheduler=built.env.scheduler,
        issue=make_rebalance_issue(
            [built.client_in(region) for region in CLIENT_REGIONS],
            built.env.scheduler.now, samples, acked),
        make_generator=lambda session_id: OperationGenerator.seeded(
            workload, built.dataset, seed, f"golden-s{session_id}"),
        arrivals=make_arrival_process(
            "poisson", 300.0, derive_rng(seed, "golden:arrivals")),
        sessions=40, duration_ms=6_000.0, warmup_ms=500.0, cooldown_ms=500.0,
        label="golden-rebalance", max_in_flight=64, policy="queue",
        queue_limit=256)
    joiner_region = round_robin_regions(nodes + 1)[-1]
    contact = built.client_in(CLIENT_REGIONS[0]).contact
    leave = []
    join = cluster.join_node(
        f"cassandra-{nodes}-{joiner_region}", joiner_region, at_ms=800.0,
        on_complete=lambda _: leave.append(
            cluster.decommission_node(contact)))
    result = runner.run()
    built.env.run_until_idle()
    assert join.done and leave[0].done
    return {
        "samples": samples,
        "acked": sorted(acked.items()),
        "lost_acked_writes": count_lost_acked_writes(cluster, acked),
        "failed_ops": result.failed_ops,
        "measured_ops": result.measured_ops,
        "keys_streamed": cluster.total("keys_streamed_in"),
        "stale_rejections": cluster.total("stale_rejections"),
        "stale_retries": cluster.total("stale_epoch_retries"),
        "writes_forwarded": cluster.total("writes_forwarded"),
        "client_retries": [c.retries for c in cluster.clients],
        "client_failures": [c.failed_requests for c in cluster.clients],
        "rebalance_ms": (join.duration_ms(), leave[0].duration_ms()),
        "ring_version": cluster.partitioner.version,
        "network": (built.env.network.messages_sent,
                    built.env.network.messages_delivered,
                    built.env.network.messages_dropped,
                    built.env.network.total_bytes()),
        "events": built.env.scheduler.events_executed,
    }


def fault_fingerprints() -> Dict[str, Dict[str, str]]:
    """Trace + run-record hashes of the fault family: a quick slice of every
    Cassandra fig13 scenario, the ``cass-open-faults-b``-shaped open-loop
    slice (crash + WAN degrade over sessions, read repair on), the same
    slice with every replica down at once, and a fig15 join -> decommission
    cell with fallback contacts.  Recorded on the
    classic ``Message`` request path, before it was deleted."""
    from fault_slices import open_loop_run
    from repro.bench.fig13_faults import run_fig13_scenario
    from repro.faults.schedule import FaultScheduleBuilder

    out: Dict[str, Dict[str, str]] = {}
    for scenario in FIG13_SCENARIOS:
        with _traced_schedulers() as traces:
            record = run_fig13_scenario(scenario, **FIG13_SLICE)
        (trace,) = traces
        out[f"fig13-{scenario}"] = {"trace_sha256": _sha(trace),
                                    "record_sha256": _sha([record])}
    # Staggered crashes of all three replicas: quorums downgrade, and while
    # everything is down requests exhaust their failover and fail.
    all_down = (FaultScheduleBuilder()
                .crash_window("replica:0", 500.0, 3_200.0)
                .crash_window("replica:1", 800.0, 4_000.0)
                .crash_window("replica:2", 1_000.0, 3_800.0)
                .build())
    for name, kwargs in (("open-faults-b", {}),
                         ("open-faults-all-down",
                          dict(schedule=all_down, seed=17))):
        digest, run, _ = open_loop_run(**kwargs)
        del run["in_flight"]  # what is left behind is asserted, not pinned
        out[name] = {"trace_sha256": digest, "record_sha256": _sha([run])}
    with _traced_schedulers() as traces:
        record = rebalance_cell()
    (trace,) = traces
    out["fig15-join-decommission"] = {"trace_sha256": _sha(trace),
                                      "record_sha256": _sha([record])}
    return out


def zookeeper_fingerprints() -> Dict[str, Dict[str, object]]:
    """Trace + run-record hashes of the ZooKeeper family (``zk_slices``): a
    follower- and a leader-connected fig09 cell, a ``zk-tickets``-shaped
    sale with heartbeats on, fig13's leader crash and a partitioned-then-
    healed zombie leader.  Recorded while every hop was a ``Message`` with a
    payload dict, before the request path moved onto records."""
    import zk_slices

    out: Dict[str, Dict[str, object]] = {}
    for name, run in zk_slices.RUNS.items():
        with _traced_schedulers() as traces:
            record, clusters = run()
        counts = [zk_slices.cluster_record(cluster) for cluster in clusters]
        out[name] = {
            "events": sum(c["events"] for c in counts),
            "messages": sum(c["network"][0] for c in counts),
            "trace_sha256": _sha(traces),
            "record_sha256": _sha([record] + counts),
        }
    return out


#: The quick fig16 cells whose transactions the completion oracle replays.
TXN_SCENARIOS = ("coordinator-crash-mid-commit",
                 "participant-crash-after-prepare")


def txn_completions(scenario: str) -> List[tuple]:
    """Every transaction Correctable of one quick fig16 cell, in submission
    order: each view's value, level, time and latency, then the state it
    closed in and its error's type and message.

    The cell's own submission loop is replayed here (every transaction
    pre-scheduled at its instant from t = 0, keys and values from the
    cell's label-derived stream), so the oracle does not move when the
    figure's arrivals do."""
    from repro.core.cluster_spec import ClusterSpec
    from repro.faults import FaultInjector, get_scenario
    from repro.sim.rand import derive_rng
    from repro.txn import TxnConfig, build_txn_fabric, txn_aliases

    keys_per_txn, interval_ms, duration_ms = 2, 40.0, 6_000.0
    fault_at_ms = fault_duration_ms = 2_500.0
    config = TxnConfig()
    built = ClusterSpec(nodes=3, seed=42, record_count=120,
                        client_regions=()).build()
    fabric = build_txn_fabric(built, config=config, coordinator_count=2)
    FaultInjector(built.env,
                  schedule=get_scenario(scenario, at_ms=fault_at_ms,
                                        duration_ms=fault_duration_ms),
                  aliases=txn_aliases(fabric)).arm(offset_ms=0.0)
    rng = derive_rng(42, f"fig16-{scenario}-k{keys_per_txn}:txns")
    keys = built.dataset.keys()
    correctables: List = []

    def submit() -> None:
        chosen = sorted(rng.sample(range(len(keys)), keys_per_txn))
        correctables.append(fabric.manager.execute(
            {keys[i]: f"txn-val-{rng.randrange(1 << 30)}" for i in chosen}))

    for i in range(int(duration_ms / interval_ms)):
        built.env.scheduler.schedule_at(i * interval_ms, submit)
    built.env.run(until=duration_ms + fault_at_ms + fault_duration_ms
                  + config.txn_deadline_ms + 30_000.0)
    return [([(view.value, view.consistency.name, view.timestamp,
               view.metadata["latency_ms"]) for view in c.views()],
             c.state.value,
             None if c.error is None else (type(c.error).__name__,
                                           str(c.error)))
            for c in correctables]


def _round_times(coordinator):
    """When the coordinator's last takeover began and ended (``None`` for
    what did not happen)."""
    last = coordinator.takeover.round
    return (None, None) if last is None else (last.started_ms,
                                              last.completed_ms)


def txn_cell_record(fabric, env) -> Dict[str, object]:
    """Everything countable about a finished fig16 cell, host-independent:
    events, the network's totals and every link's traffic, and every
    coordinator, participant and manager counter."""
    network = env.network
    return {
        "events": env.scheduler.events_executed,
        "network": [network.messages_sent, network.messages_delivered,
                    network.messages_dropped, network.total_bytes()],
        "links_sha256": _sha(sorted(
            (src, dst, stats.messages, stats.bytes)
            for (src, dst), stats in network._links.items())),
        "counters_sha256": _sha(
            [(c.name, c.active, c.epoch, c.takeover.known_epoch,
              c.txns_started, c.commits, c.aborts, c.prepare_timeouts,
              c.takeover.takeovers, c.redirects, c.decision_redeliveries,
              c.takeover.heartbeats_sent, *_round_times(c),
              c.queue.jobs_processed) for c in fabric.coordinators]
            + [(p.name, p.epoch, p.votes_yes, p.votes_no, p.lock_conflicts,
                p.deadline_refusals, p.stale_epoch_rejections,
                p.commits_applied, p.aborts_logged, p.takeover_replies,
                len(p.log), p.log.appends, p.queue.jobs_processed)
               for _, p in sorted(fabric.participants.items())]
            + [(m.name, m.txns_submitted, m.retries, m.failed_requests,
                m.redirects_followed, m.duplicate_finals,
                m.stats.prepared_views, m.stats.matched,
                m.stats.mismatched, m.stats.unresolved)
               for m in (fabric.manager,)]),
    }


def txn_cell_records() -> Dict[str, Dict[str, object]]:
    """The message-level oracle: :func:`txn_cell_record` of every quick
    fig16 cell, run through the figure's own entry point.  Recorded while
    every 2PC hop was a ``Message`` with a payload dict."""
    from repro.bench.fig16_txn import run_fig16_cell
    from repro.bench.figures import FIG16
    from repro.txn import TxnFabric
    from zk_slices import instances_built

    out: Dict[str, Dict[str, object]] = {}
    for point in FIG16.points(**FIG16.quick):
        with instances_built(TxnFabric) as fabrics:
            _, env = run_fig16_cell(**point.kwargs)
        (fabric,) = fabrics
        out[f"fig16-quick-{point.kwargs['scenario']}"] = \
            txn_cell_record(fabric, env)
    return out


def txn_fingerprints() -> Dict[str, Dict[str, object]]:
    """The transaction oracle: per completion cell, how many transactions
    closed with a commit, an abort or an error, and a hash of every
    Correctable's views and error (:func:`txn_completions`); then the
    message-level record of every quick fig16 cell
    (:func:`txn_cell_records`)."""
    out: Dict[str, Dict[str, object]] = {}
    for scenario in TXN_SCENARIOS:
        completions = txn_completions(scenario)
        outcomes = [views[-1][0]["outcome"] if state == "final" else state
                    for views, state, _ in completions]
        out[f"fig16-{scenario}"] = {
            "txns": len(completions),
            "commit": outcomes.count("commit"),
            "abort": outcomes.count("abort"),
            "error": outcomes.count("error"),
            "prepared_views": sum(len(views) - (state == "final")
                                  for views, state, _ in completions),
            "completions_sha256": _sha(completions),
        }
    out.update(txn_cell_records())
    return out


@contextlib.contextmanager
def _through_correctables(module, builder: str):
    """Inside, ``module.builder`` hands out its Correctables reference
    issuer (``fault_slices.builds_through_correctables``); on exit, checks
    that every operation the Cassandra clusters built inside issued was a
    ``CorrectableClient`` invocation."""
    from fault_slices import builds_through_correctables
    from repro.cassandra_sim.cluster import CassandraCluster
    from repro.core.client import CorrectableClient
    from zk_slices import instances_built

    with builds_through_correctables(module, builder), \
            instances_built(CassandraCluster) as clusters, \
            instances_built(CorrectableClient) as correctables:
        yield
    invocations = sum(client.invocations for client in correctables)
    assert invocations > 0
    assert invocations == sum(client.reads_sent + client.writes_sent
                              for cluster in clusters
                              for client in cluster.clients)


def _golden() -> Dict:
    if not GOLDEN_PATH.exists():
        pytest.fail(f"golden file missing: {GOLDEN_PATH}; regenerate with "
                    f"'python {__file__} --regenerate'")
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


class TestDeterminism:
    def test_event_trace_matches_golden(self):
        assert trace_fingerprint() == _golden()["trace"]

    def test_event_trace_matches_golden_with_lean_ops_off(self):
        """Correctables over the Cassandra binding (views forwarded into
        the runner's records) reproduce the runner-sink trace."""
        from repro.bench import common

        with _through_correctables(common, "make_kv_issue"):
            assert trace_fingerprint() == _golden()["trace"]

    def test_fault_family_matches_golden(self):
        """Timeouts, retry-then-downgrade, failover, read repair, ring
        changes: every event and every reported number of the fault slices
        is the one the deleted ``Message`` request path produced."""
        assert fault_fingerprints() == _golden()["faults"]

    def test_zookeeper_family_matches_golden(self):
        """Fault-free Zab, heartbeats, election, sync, re-forwarded and
        re-proposed writes, client failover, stale-epoch redirects and a
        snapshot rejoin: every event and every reported number is the one
        the ``Message`` handlers produced."""
        assert zookeeper_fingerprints() == _golden()["zookeeper"]

    def test_txn_completions_match_golden(self):
        """Through a coordinator takeover and a participant outage, every
        transaction Correctable shows the views, levels and errors that the
        manager's response-dict completion produced; and every quick fig16
        cell executes the events, sends the messages and bytes on every
        link and counts what the ``Message`` handlers did."""
        assert txn_fingerprints() == _golden()["txn"]

    def test_failed_transaction_closes_with_a_transaction_error(self):
        """The error half of the oracle: with every coordinator down, the
        transaction's Correctable fails once, with a TransactionError."""
        from repro.core.cluster_spec import ClusterSpec
        from repro.txn import TransactionError, TxnConfig, build_txn_fabric

        built = ClusterSpec(nodes=3, seed=11, record_count=40,
                            client_regions=()).build()
        fabric = build_txn_fabric(
            built, config=TxnConfig(heartbeat_interval_ms=0.0))
        for coordinator in fabric.coordinators:
            coordinator.crash()
        correctable = fabric.manager.execute({built.dataset.keys()[0]: "v"})
        built.env.run_until_idle()
        assert correctable.is_error() and correctable.views() == ()
        assert type(correctable.error) is TransactionError
        assert str(correctable.error) == \
            "transaction timeout: no coordinator answered"

    def test_event_trace_is_repeatable(self):
        assert trace_fingerprint() == trace_fingerprint()

    def test_pools_recycle_without_leaking(self):
        """A fault-free run sends zero messages and leaks no records.

        Every FusedRead/FusedWrite acquired during the run must be back in
        its pool once the run drains (outstanding = created + reused -
        recycled stays put), and the message pool must stay untouched —
        proof the whole protocol ran on the records.
        """
        from repro.bench.common import (
            cassandra_config_for, run_multi_region_load)
        from repro.cassandra_sim.coordinator import FusedRead, FusedWrite
        from repro.core.cluster_spec import ClusterSpec
        from repro.sim.topology import Region
        from repro.workloads.ycsb import workload_by_name

        def outstanding(pool) -> int:
            stats = pool.pool_stats()
            return stats["created"] + stats["reused"] - stats["recycled"]

        reads_before = outstanding(FusedRead)
        writes_before = outstanding(FusedWrite)
        def acquired() -> int:
            stats = FusedRead.pool_stats()
            return stats["created"] + stats["reused"]

        acquired_before = acquired()
        scenario = ClusterSpec(
            seed=11, record_count=60, client_regions=(Region.IRL,),
            config=cassandra_config_for("CC2")).build()
        run_multi_region_load(
            scenario, "CC2", workload_by_name("A"), threads_per_client=2,
            duration_ms=2_000.0, warmup_ms=250.0, cooldown_ms=250.0, seed=11)
        stats = scenario.env.network.pool_stats()
        assert stats["created"] == 0, "a fault-free run materialized a Message"
        assert scenario.env.network.messages_sent > 0
        assert acquired() > acquired_before, \
            "the read path never ran"
        assert outstanding(FusedRead) == reads_before, \
            "a FusedRead record leaked"
        assert outstanding(FusedWrite) == writes_before, \
            "a FusedWrite record leaked"
        assert scenario.cluster.in_flight() == {
            "read_sessions": 0, "write_sessions": 0, "client_pending": 0}

    def test_txn_request_path_creates_no_message(self):
        """Every 2PC hop (begin, redirect, prepare, vote, decision, ack,
        PREPARED notice, final, and the heartbeats and takeover exchange of
        the control plane) rides records and continuations, so neither a
        fault-free fabric nor a fig16 cell through a coordinator takeover
        creates a ``Message``."""
        from repro.bench.fig16_txn import run_fig16_cell
        from repro.core.cluster_spec import ClusterSpec
        from repro.txn import TxnConfig, build_txn_fabric

        built = ClusterSpec(nodes=3, seed=11, record_count=40,
                            client_regions=()).build()
        fabric = build_txn_fabric(
            built, config=TxnConfig(heartbeat_interval_ms=0.0))
        keys = built.dataset.keys()
        for i in range(10):
            fabric.manager.execute({keys[i]: "a", keys[i + 10]: "b"})
        built.env.run_until_idle()
        assert len(fabric.manager.acked_commits) == 10
        assert built.env.network.messages_sent > 0
        assert built.env.network.pool_stats()["created"] == 0

        _, env = run_fig16_cell(
            scenario="coordinator-crash-mid-commit", keys_per_txn=2,
            nodes=3, coordinators=2, rate_txn_s=25.0,
            duration_ms=4_000.0, fault_at_ms=1_500.0,
            fault_duration_ms=1_500.0, decision_log_ms=2.0,
            record_count=120, seed=42)
        assert env.network.messages_sent > 0
        assert env.network.pool_stats()["created"] == 0

    def test_zookeeper_request_path_creates_no_message(self):
        """ZooKeeper's request path and its control plane (pings, elections,
        syncs, snapshots) ride records and continuations, so no run creates
        a ``Message``: not the fault-free fig09 cells, not the leader crash,
        not the partitioned-then-healed zombie leader."""
        import zk_slices

        _, clusters = zk_slices.fig09_cells(samples=10)
        _, crashed = zk_slices.leader_crash()
        _, zombie = zk_slices.zombie_leader()
        for cluster in clusters + crashed + zombie:
            assert cluster.env.network.messages_sent > 0
            assert cluster.env.network.pool_stats()["created"] == 0
        assert sum(s.elections_started for c in crashed + zombie
                   for s in c.servers) > 0

    def test_live_counter_matches_scan_under_load(self):
        """The O(1) live counter equals the O(n) queue scan throughout a run.

        Drives the closed-loop CC2 load in slices, auditing
        ``pending(live_only=True) == _scan_live()`` at every slice boundary
        — while timeouts are being scheduled and cancelled — and again
        after the full drain, where both must reach zero.
        """
        from repro.bench.common import (
            cassandra_config_for, make_generator_factory, make_kv_issue)
        from repro.core.cluster_spec import ClusterSpec
        from repro.sim.topology import Region
        from repro.workloads.runner import ClosedLoopRunner
        from repro.workloads.ycsb import workload_by_name

        scenario = ClusterSpec(
            seed=11, record_count=60,
            client_regions=(Region.IRL, Region.FRK),
            config=cassandra_config_for("CC2")).build()
        scheduler = scenario.env.scheduler
        spec = workload_by_name("A")
        runners = [
            ClosedLoopRunner(
                scheduler=scheduler,
                issue=make_kv_issue(client, "CC2"),
                make_generator=make_generator_factory(
                    spec, scenario.dataset, 11, f"CC2-{region}"),
                threads=2, duration_ms=2_500.0, warmup_ms=500.0,
                cooldown_ms=250.0, label=f"audit-{region}")
            for region, client in scenario.clients.items()]
        for runner in runners:
            runner.start()
        end = max(runner.end_time for runner in runners)
        for slice_index in range(1, 9):
            scenario.env.run(until=end * slice_index / 8.0)
            assert scheduler.pending(live_only=True) == \
                scheduler._scan_live()
        scenario.env.run_until_idle()
        assert scheduler.pending(live_only=True) == 0
        assert scheduler._scan_live() == 0

    def test_fig13_fault_slice_identical_with_lean_ops_forced(self):
        """The fault family is invariant to how operations complete.

        Fault configurations arm timeouts and fallback contacts on the same
        pooled records; whether the issuer hands the storage client the
        runner's thread or the operation's Correctable only decides how an
        operation completes, and the record matches bit for bit
        either way.
        """
        from repro.bench import fig13_faults

        kwargs = dict(workload="B", threads_per_client=2,
                      duration_ms=6_000.0, warmup_ms=1_500.0,
                      cooldown_ms=500.0, record_count=150, seed=42)
        reference = fig13_faults.run_fig13_scenario("replica-crash", **kwargs)
        with _through_correctables(fig13_faults, "make_kv_issue"):
            assert fig13_faults.run_fig13_scenario(
                "replica-crash", **kwargs) == reference

    def test_fig14_open_loop_slice_identical_with_lean_ops_off(self):
        """An open-loop fig14 cell is bit-identical through Correctables.

        This covers the *open-loop* sink pipeline end to end — pooled
        runner op records as completion sinks, the session-rotation issue
        path, and the record-carried storage protocol underneath — against
        the same sessions' ``Correctable`` route over the Cassandra
        binding.
        """
        from repro.bench import fig14_open_loop
        from repro.bench.sweep import SweepPoint

        kwargs = dict(binding="cassandra", mode="open", policy="queue",
                      rate_ops_s=400.0, arrivals="poisson", sessions=60,
                      max_in_flight=16, queue_limit=64,
                      duration_ms=6_000.0, warmup_ms=1_000.0,
                      cooldown_ms=500.0, record_count=120, workload="A",
                      distribution="latest", seed=42)
        point = SweepPoint(index=0, family="fig14", kwargs=kwargs)
        reference = fig14_open_loop.run_fig14_point(point)
        with _through_correctables(fig14_open_loop, "make_session_issue"):
            assert fig14_open_loop.run_fig14_point(point) == reference

    def test_fig13_and_fig14_runs_leave_nothing_in_flight(self):
        """After a drained run every read and write record is retired, no
        client has an operation open, and no live event is left — through
        every Cassandra fault scenario of fig13 and an open-loop fig14 cell."""
        from repro.bench.fig13_faults import run_fig13_scenario
        from repro.bench.fig14_open_loop import run_fig14_point
        from repro.bench.sweep import SweepPoint
        from repro.cassandra_sim.cluster import CassandraCluster
        from zk_slices import instances_built

        def assert_drained(cluster, what: str) -> None:
            assert cluster.in_flight() == {
                "read_sessions": 0, "write_sessions": 0,
                "client_pending": 0}, what
            assert cluster.env.scheduler.pending(live_only=True) == 0, what

        for scenario in ("replica-crash", "wan-partition", "flapping-link",
                         "slow-follower"):
            with instances_built(CassandraCluster) as built:
                record = run_fig13_scenario(scenario, **FIG13_SLICE)
            (cluster,) = built
            assert sum(r.writes_coordinated for r in cluster.replicas) > 100
            assert record["faults_applied"] > 0
            assert_drained(cluster, f"fig13 {scenario}")
        with instances_built(CassandraCluster) as built:
            run_fig14_point(SweepPoint(index=0, family="fig14", kwargs=dict(
                binding="cassandra", mode="open", policy="queue",
                rate_ops_s=400.0, arrivals="poisson", sessions=60,
                max_in_flight=16, queue_limit=64, duration_ms=4_000.0,
                warmup_ms=500.0, cooldown_ms=500.0, record_count=120,
                workload="A", distribution="latest", seed=42)))
        (cluster,) = built
        assert_drained(cluster, "fig14 open loop")

    def test_zookeeper_runs_leave_nothing_in_flight(self):
        """After each ZooKeeper golden run no client has a request open, no
        server holds a forwarded write, an origin (attached or stashed
        across the election) or an unacknowledged proposal, and only the
        periodic heartbeat ticks and their pings are still scheduled."""
        import zk_slices

        for name, run in zk_slices.RUNS.items():
            _, clusters = run()
            for cluster in clusters:
                assert cluster.in_flight() == zk_slices.DRAINED, name
                heartbeats = cluster.config.heartbeat_interval_ms > 0
                assert cluster.env.scheduler.pending(live_only=True) \
                    <= (3 * len(cluster.servers) if heartbeats else 0), name

    def test_open_loop_lean_pools_recycle_without_leaking(self):
        """Open-loop load leaks neither runner op records nor fused
        protocol records: everything acquired during the run is back on its
        free list once the run drains."""
        from repro.bench.fig14_open_loop import run_fig14_point
        from repro.bench.sweep import SweepPoint
        from repro.cassandra_sim.coordinator import FusedRead, FusedWrite
        from repro.workloads.runner import _OpenOp

        def outstanding(stats):
            # FusedRead/FusedWrite count pool pops in ``reused``; the
            # unbounded _OpenOp pool counts only fresh constructions, so
            # its outstanding records are created - free.
            if "reused" in stats:
                return stats["created"] + stats["reused"] - stats["recycled"]
            return stats["created"] - stats["free"]

        ops_before = outstanding(_OpenOp.pool_stats())
        reads_before = outstanding(FusedRead.pool_stats())
        writes_before = outstanding(FusedWrite.pool_stats())
        created_before = _OpenOp.pool_stats()["created"]
        recycled_before = _OpenOp.pool_stats()["recycled"]
        run_fig14_point(SweepPoint(
            index=0, family="fig14",
            kwargs=dict(binding="cassandra", mode="open", policy="queue",
                        rate_ops_s=300.0, arrivals="poisson", sessions=40,
                        max_in_flight=16, queue_limit=64,
                        duration_ms=4_000.0, warmup_ms=500.0,
                        cooldown_ms=500.0, record_count=120, workload="A",
                        distribution="latest", seed=42)))
        stats = _OpenOp.pool_stats()
        assert stats["recycled"] > recycled_before, \
            "the pooled open-loop op records never cycled"
        assert stats["recycled"] - recycled_before > \
            stats["created"] - created_before, "op records were never reused"
        assert outstanding(stats) == ops_before, \
            "an open-loop op record leaked"
        assert outstanding(FusedRead.pool_stats()) == reads_before, \
            "a FusedRead record leaked"
        assert outstanding(FusedWrite.pool_stats()) == writes_before, \
            "a FusedWrite record leaked"

    @pytest.mark.slow
    def test_quick_figures_match_golden(self):
        assert figure_fingerprints() == _golden()["figures"]

    @pytest.mark.slow
    def test_quick_figures_match_golden_with_parallel_sweep(self):
        """--jobs 2 must reproduce the committed serial golden hashes."""
        assert figure_fingerprints(jobs=2) == _golden()["figures"]


if __name__ == "__main__":
    import sys

    if "--regenerate" not in sys.argv:
        raise SystemExit(f"usage: python {sys.argv[0]} --regenerate")
    tests = pathlib.Path(__file__).parents[1]
    sys.path[:0] = [str(tests), str(tests / "check")]
    golden = {"trace": trace_fingerprint(), "figures": figure_fingerprints(),
              "faults": fault_fingerprints(),
              "zookeeper": zookeeper_fingerprints(),
              "txn": txn_fingerprints()}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n",
                           encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
    print(json.dumps(golden, indent=2))
