"""The four benchmark workloads.

Each workload is one class with the same phase methods, called in order by
``worker.py``: ``build`` (cluster, no data) → ``make_items`` / ``install`` (dataset
onto the cluster) → ``prepare`` (runners, generators, fault script) → ``start``
(first operation issued) → the serve loop (``slice_ms`` steps of
``env.run(until=…)`` until ``finished()``) → ``drain`` → ``audit`` /
``outcome`` / ``counters``.  The program under test only ever receives
generated inputs; ``seed`` decides them, ``scale`` sizes the simulated run
(1.0 is one benchmark round, ``--quick`` is 0.1).

Everything imported from ``src/`` is listed in ``run.SURFACE`` so a rename
there fails ``--check-surface`` with a clear message instead of an
``ImportError`` mid-run.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.apps.tickets import TicketSeller
from repro.bench.common import (
    cassandra_config_for,
    make_generator_factory,
    make_kv_issue,
)
from repro.bench.fig14_open_loop import make_session_issue
from repro.bench.fig15_rebalance import (
    count_lost_acked_writes,
    make_rebalance_issue,
    skew_workload,
)
from repro.bindings.cassandra import CassandraBinding
from repro.bindings.zookeeper import ZooKeeperQueueBinding
from repro.cassandra_sim.config import CassandraConfig
from repro.cassandra_sim.coordinator import FusedRead, FusedWrite
from repro.cassandra_sim.storage import ColumnarTable
from repro.core.client import CorrectableClient
from repro.core.cluster_spec import ClusterSpec
from repro.faults import FaultInjector, FaultScheduleBuilder, cassandra_aliases
from repro.metrics.latency import LatencyRecorder
from repro.sim.environment import SimEnvironment
from repro.sim.rand import derive_rng
from repro.sim.topology import Region, round_robin_regions
from repro.workloads.arrivals import ArrivalProcess, make_arrival_process
from repro.workloads.runner import ClosedLoopRunner, OpenLoopRunner, _OpenOp
from repro.workloads.ycsb import OperationGenerator, workload_by_name
from repro.zookeeper_sim.cluster import ZooKeeperCluster
from repro.zookeeper_sim.config import ZooKeeperConfig

ALL_REGIONS = (Region.IRL, Region.FRK, Region.VRG)

#: The serve phase runs in this many equal steps of simulated time (the
#: ticket workload, which ends when sold out, sizes its step to land near it).
SLICES = 200


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class _DueArrivals(ArrivalProcess):
    """Wraps an arrival process to measure how late the generator ran.

    The open-loop runner draws the next gap while handling the arrival that
    was due at the sum of all previous gaps, so ``now - due`` at each draw is
    that arrival's lateness.  In simulated time it is 0 by construction; the
    audit asserts it rather than assuming it.
    """

    def __init__(self, inner: ArrivalProcess,
                 clock: Callable[[], float]) -> None:
        self.inner = inner
        self.rate_ops_s = inner.rate_ops_s
        self._clock = clock
        self._due: Optional[float] = None
        self.max_lateness_ms = 0.0

    def next_gap_ms(self) -> float:
        now = self._clock()
        if self._due is None:
            self._due = now
        lateness = now - self._due
        if lateness > self.max_lateness_ms:
            self.max_lateness_ms = lateness
        gap = self.inner.next_gap_ms()
        self._due += gap
        return gap


class Workload:
    """Phase interface plus the accounting every workload shares."""

    name = ""

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.scale = scale
        self.env: Any = None
        #: Cassandra / ZooKeeper cluster, whichever the workload runs on.
        self.cassandra: Any = None
        self.zk: Any = None
        self.runners: List[Any] = []
        self.correctable_clients: List[CorrectableClient] = []
        self.injector: Optional[FaultInjector] = None
        self.arrivals: Optional[_DueArrivals] = None
        #: The live ring change, for the workload that has one.
        self.join: Any = None
        self.slice_ms = 0.0
        self.end_ms = 0.0

    # -- phases (overridden) ------------------------------------------------
    def build(self) -> None:
        raise NotImplementedError

    def make_items(self) -> Any:
        """Generate the initial dataset (timed on its own by the worker)."""
        raise NotImplementedError

    def install(self, items: Any) -> int:
        """Load ``items`` onto the cluster; returns the rows installed."""
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def start(self) -> None:
        for runner in self.runners:
            runner.start()
        self.end_ms = max(runner.end_time for runner in self.runners)
        self.slice_ms = (self.end_ms - self.env.now()) / SLICES

    def finished(self) -> bool:
        return self.env.now() >= self.end_ms

    def drain(self) -> None:
        self.env.run_until_idle()

    # -- accounting ----------------------------------------------------------
    def attempted(self) -> int:
        """Operations offered: every arrival of the open loops."""
        return sum(runner.result.admission.offered for runner in self.runners)

    def completed(self) -> int:
        return sum(runner.result.total_ops for runner in self.runners)

    def outcome(self) -> Dict[str, Any]:
        """Simulated results: counts plus the latency recorders."""
        final, prelim = LatencyRecorder(), LatencyRecorder()
        matched = diverged = missing = measured = failed = shed = 0
        for runner in self.runners:
            result = runner.result
            final.merge(result.read_latency)
            prelim.merge(result.preliminary_latency)
            matched += result.divergence.matched
            diverged += result.divergence.diverged
            missing += result.divergence.missing_preliminary
            measured += result.measured_ops
            failed += result.failed_ops
            if result.admission is not None:
                shed += result.admission.shed
        return {
            "attempted": self.attempted(),
            "completed": self.completed() - failed,
            "shed": shed, "failed": failed, "measured_ops": measured,
            "window_ms": self.runners[0].result.duration_ms,
            "final": final, "prelim": prelim,
            "matched": matched, "diverged": diverged,
            "missing_preliminary": missing,
        }

    def audit(self) -> Dict[str, bool]:
        """Named output checks; every value must be true."""
        out = self.outcome()
        checks = {
            "offered_equals_completed_shed_failed":
                out["attempted"] == out["completed"] + out["shed"]
                + out["failed"],
            "no_live_events_left":
                self.env.scheduler.pending(live_only=True) == 0,
        }
        checks.update(self._pool_checks())
        return checks

    def _pool_checks(self) -> Dict[str, bool]:
        net = self.env.network.pool_stats()
        return {
            "message_pool_balanced":
                net["free"] == net["recycled"] - net["reused"]
                and net["free"] <= net["created"],
            "fused_pools_balanced": _fused_outstanding() == 0,
            "open_op_pool_balanced": _open_op_outstanding() == 0,
        }

    def counters(self, out: Dict[str, Any]) -> Dict[str, float]:
        """Per-layer counters from the public surface (deterministic);
        ``out`` is :meth:`outcome`'s result."""
        ops = out["completed"]
        env = self.env
        scheduler, network = env.scheduler, env.network
        net = network.pool_stats()
        compared = out["matched"] + out["diverged"]
        invocations = sum(c.invocations for c in self.correctable_clients)
        samples = 0
        queue_p99 = high_water = 0.0
        for runner in self.runners:
            result = runner.result
            samples += (result.final_latency.count
                        + result.preliminary_latency.count
                        + result.read_latency.count
                        + result.update_latency.count)
            if result.admission is not None:
                samples += result.admission.queue_delay.count
                queue_p99 = max(queue_p99, result.admission.queue_delay.p99())
                high_water = max(high_water,
                                 result.admission.in_flight_high_water)
        values = {
            "sim.scheduler.events_per_op":
                _ratio(scheduler.events_executed, ops),
            "sim.scheduler.live_events_at_end":
                scheduler.pending(live_only=True),
            "sim.network.msgs_per_op": _ratio(network.messages_sent, ops),
            "sim.network.bytes_per_op": _ratio(network.total_bytes(), ops),
            "sim.network.dropped_msg_share":
                _ratio(network.messages_dropped, network.messages_sent),
            "sim.network.msg_pool_reuse_share":
                _ratio(net["reused"], net["created"] + net["reused"]),
            "core.invocations_per_op": _ratio(invocations, ops),
            "core.icg_share": _ratio(
                sum(c.icg_invocations for c in self.correctable_clients),
                invocations),
            "core.prelim_used_share":
                _ratio(compared, compared + out["missing_preliminary"]),
            "core.divergence_share": _ratio(out["diverged"], compared),
            "workloads.shed_share": _ratio(out["shed"], out["attempted"]),
            "workloads.failed_ops_share":
                _ratio(out["failed"], out["attempted"]),
            "workloads.queue_delay_ms_p99": queue_p99,
            "workloads.in_flight_high_water": high_water,
            "workloads.arrival_lateness_ms_max":
                self.arrivals.max_lateness_ms if self.arrivals else 0.0,
            "workloads.open_op_pool_leaked": _open_op_outstanding(),
            "metrics.samples_recorded_per_op": _ratio(samples, ops),
            "faults.events_applied":
                len(self.injector.log) if self.injector else 0,
        }
        values.update(_cassandra_counters(self.cassandra, ops))
        values.update(_zookeeper_counters(self.zk, ops))
        return values


def _fused_outstanding() -> int:
    return sum(s["created"] + s["reused"] - s["recycled"]
               for s in (FusedRead.pool_stats(), FusedWrite.pool_stats()))


def _open_op_outstanding() -> int:
    stats = _OpenOp.pool_stats()
    return stats["created"] - stats["free"]


def _cassandra_counters(cluster: Any, ops: int) -> Dict[str, float]:
    replicas = (cluster.replicas + cluster.retired_replicas) if cluster else []
    clients = cluster.clients if cluster else []
    reads = sum(c.reads_sent for c in clients)
    fused = [FusedRead.pool_stats(), FusedWrite.pool_stats()]
    join = cluster.rebalances[0] if cluster and cluster.rebalances else None
    return {
        "cassandra.client.retries_per_op":
            _ratio(sum(c.retries for c in clients), ops),
        "cassandra.client.failed_requests":
            sum(c.failed_requests for c in clients),
        "cassandra.client.late_preliminaries":
            sum(c.late_preliminaries for c in clients),
        "cassandra.replica.prelims_flushed_per_read":
            _ratio(sum(r.preliminaries_flushed for r in replicas), reads),
        "cassandra.replica.coordinator_retries_per_op":
            _ratio(sum(r.read_retries + r.write_retries for r in replicas),
                   ops),
        "cassandra.replica.downgraded_share":
            _ratio(sum(r.reads_downgraded + r.writes_downgraded
                       for r in replicas), ops),
        "cassandra.replica.fused_pool_reuse_share":
            _ratio(sum(s["reused"] for s in fused),
                   sum(s["created"] + s["reused"] for s in fused)),
        "cassandra.replica.fused_pool_leaked": _fused_outstanding(),
        "cassandra.ring.keys_streamed":
            sum(r.keys_streamed_in for r in replicas),
        "cassandra.ring.rebalance_sim_ms": join.duration_ms() if join else 0.0,
        "cassandra.ring.stale_epoch_retries":
            sum(r.stale_epoch_retries for r in replicas),
        "cassandra.ring.writes_forwarded":
            sum(r.writes_forwarded for r in replicas),
    }


def _zookeeper_counters(cluster: Any, ops: int) -> Dict[str, float]:
    servers = cluster.servers if cluster else []
    leader = cluster.leader if cluster else None
    return {
        "zookeeper.txns_applied_per_op":
            _ratio(leader.transactions_applied if leader else 0, ops),
        "zookeeper.prelims_sent_per_op":
            _ratio(sum(s.preliminaries_sent for s in servers), ops),
        "zookeeper.elections_started":
            sum(s.elections_started for s in servers),
    }


class _CassandraWorkload(Workload):
    """Shared build/preload for the three Cassandra workloads."""

    record_count = 1_000
    duration_s = 0.0

    def _spec(self, **kwargs: Any) -> ClusterSpec:
        """The deployment, minus the data (``install`` loads it, timed)."""
        return ClusterSpec(seed=self.seed, record_count=self.record_count,
                           client_regions=ALL_REGIONS, preload=False,
                           **kwargs)

    def _windows(self) -> Dict[str, float]:
        duration_ms = self.duration_s * 1000.0 * self.scale
        return {"duration_ms": duration_ms, "warmup_ms": 0.10 * duration_ms,
                "cooldown_ms": 0.05 * duration_ms}

    def build(self) -> None:
        self.built = self._spec().build()
        self.env = self.built.env
        self.cassandra = self.built.cluster

    def make_items(self) -> Dict[str, str]:
        return self.built.dataset.initial_items()

    def install(self, items: Dict[str, str]) -> int:
        self.cassandra.preload(items)
        return len(items)


class CassClosedA(_CassandraWorkload):
    """fig06's shape: 3 regions x 48 closed-loop threads, YCSB A, CC2 reads."""

    name = "cass-closed-a"
    duration_s = 110.0
    threads = 48

    def _spec(self) -> ClusterSpec:
        return super()._spec(config=cassandra_config_for("CC2"))

    def prepare(self) -> None:
        spec = workload_by_name("A")
        for region, client in self.built.clients.items():
            self.runners.append(ClosedLoopRunner(
                scheduler=self.env.scheduler,
                issue=make_kv_issue(client, "CC2"),
                make_generator=make_generator_factory(
                    spec, self.built.dataset, self.seed,
                    f"{self.name}-{region}"),
                threads=self.threads, label=f"{self.name}-{region}",
                **self._windows()))

    def attempted(self) -> int:
        # A closed loop has no arrivals to count: what the storage clients
        # were asked to do.
        return sum(client.reads_sent + client.writes_sent
                   for client in self.cassandra.clients)

    def audit(self) -> Dict[str, bool]:
        checks = super().audit()
        # The headline config must stay on the pooled zero-fault path.
        checks["ran_on_fused_path"] = FusedRead.pool_stats()["reused"] > 0 \
            and self.env.network.pool_stats()["created"] == 0
        return checks


class CassOpenFaultsB(_CassandraWorkload):
    """Open-loop YCSB B over CorrectableClient sessions through tiled faults."""

    name = "cass-open-faults-b"
    duration_s = 170.0
    rate_ops_s = 150.0
    sessions_per_region = 200
    fault_tiles = 5

    def _spec(self) -> ClusterSpec:
        config = CassandraConfig.fault_tolerant(
            value_size_bytes=cassandra_config_for("CC2").value_size_bytes)
        return super()._spec(config=config, client_fallbacks=True)

    def _fault_schedule(self, duration_ms: float):
        """A replica crash and a WAN degrade in every ``period`` of the run."""
        period = duration_ms / self.fault_tiles
        builder = FaultScheduleBuilder()
        for tile in range(self.fault_tiles):
            at = tile * period
            builder.crash_window("replica:1", at_ms=at + period / 3,
                                 duration_ms=period * 4 / 30)
            builder.degrade_window(f"region:{Region.FRK}",
                                   f"region:{Region.VRG}",
                                   at_ms=at + 2 * period / 3,
                                   duration_ms=period * 5 / 30,
                                   extra_ms=120.0)
        return builder.build()

    def prepare(self) -> None:
        windows = self._windows()
        self.correctable_clients = [
            CorrectableClient(CassandraBinding(
                self.built.client_in(region), strong_read_quorum=2,
                write_quorum=1))
            for region in ALL_REGIONS]
        pools = [client.sessions(self.sessions_per_region)
                 for client in self.correctable_clients]
        spec = workload_by_name("B").with_distribution("zipfian")
        self.schedule = self._fault_schedule(windows["duration_ms"])
        self.injector = FaultInjector(
            self.env, schedule=self.schedule,
            aliases=cassandra_aliases(self.cassandra))
        self.arrivals = _DueArrivals(
            make_arrival_process(
                "poisson", self.rate_ops_s,
                derive_rng(self.seed, f"{self.name}:arrivals")),
            self.env.scheduler.now)
        self.runners.append(OpenLoopRunner(
            scheduler=self.env.scheduler,
            issue=make_session_issue(pools, self.env.scheduler.now),
            make_generator=lambda session_id: OperationGenerator.seeded(
                spec, self.built.dataset, self.seed,
                f"{self.name}-s{session_id}"),
            arrivals=self.arrivals,
            sessions=self.sessions_per_region * len(pools),
            label=self.name, faults=self.injector, max_in_flight=256,
            policy="queue", queue_limit=1024, **windows))

    def audit(self) -> Dict[str, bool]:
        checks = super().audit()
        checks["every_fault_event_applied"] = \
            len(self.injector.log) == len(self.schedule) > 0
        checks["arrivals_never_late"] = self.arrivals.max_lateness_ms == 0.0
        # Timeouts on means the classic Message path, not the fused one.
        checks["ran_on_classic_path"] = \
            self.env.network.pool_stats()["created"] > 0
        return checks


class RingJoin400k(_CassandraWorkload):
    """A node joins a 6-node, 400k-key columnar ring under open-loop YCSB A."""

    name = "ring-join-400k"
    duration_s = 45.0
    join_at_s = 5.0
    rate_ops_s = 400.0
    nodes = 6

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        # Never below the columnar threshold: the workload exists to run
        # the columnar table, whatever the scale.
        self.record_count = max(100_000, int(400_000 * scale))
        self.samples: List[Dict[str, Any]] = []
        self.acked: Dict[str, Any] = {}

    def _spec(self) -> ClusterSpec:
        return super()._spec(nodes=self.nodes,
                             config=cassandra_config_for("CC2"),
                             client_fallbacks=True)

    def prepare(self) -> None:
        workload = skew_workload("zipf-0.99", "A")
        self.arrivals = _DueArrivals(
            make_arrival_process(
                "poisson", self.rate_ops_s,
                derive_rng(self.seed, f"{self.name}:arrivals")),
            self.env.scheduler.now)
        self.runners.append(OpenLoopRunner(
            scheduler=self.env.scheduler,
            issue=make_rebalance_issue(
                [self.built.client_in(region) for region in ALL_REGIONS],
                self.env.scheduler.now, self.samples, self.acked),
            make_generator=lambda session_id: OperationGenerator.seeded(
                workload, self.built.dataset, self.seed,
                f"{self.name}-s{session_id}"),
            arrivals=self.arrivals, sessions=200, label=self.name,
            max_in_flight=64, policy="queue", queue_limit=256,
            **self._windows()))
        region = round_robin_regions(self.nodes + 1)[-1]
        self.join = self.cassandra.join_node(
            f"cassandra-{self.nodes}-{region}", region,
            at_ms=self.join_at_s * 1000.0 * self.scale)

    def audit(self) -> Dict[str, bool]:
        checks = super().audit()
        checks["columnar_table_engaged"] = all(
            isinstance(replica.table, ColumnarTable)
            for replica in self.cassandra.replicas)
        checks["join_finished"] = bool(self.join.done)
        checks["no_acked_write_lost"] = \
            count_lost_acked_writes(self.cassandra, self.acked) == 0 \
            and len(self.acked) > 0
        checks["arrivals_never_late"] = self.arrivals.max_lateness_ms == 0.0
        return checks


class ZkTickets(Workload):
    """Ticket selling on a 3-server Zab ensemble: retailers buy (ICG
    dequeue) at the FRK follower while organisers restock (enqueue) at the
    IRL leader, closed loop until sold out."""

    name = "zk-tickets"
    queue = "/tickets"
    retailers = 4
    organisers = 4
    threshold = 20
    #: Backoff before a retailer that found the queue empty looks again
    #: while organisers are still restocking (simulated ms).
    empty_retry_ms = 5.0

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        # A shallow queue on purpose: dequeue cost grows with depth.
        self.preloaded = max(self.threshold * 2, int(1_000 * scale))
        self.restock_each = max(1, int(9_000 * scale) // self.organisers)
        self.restock = self.restock_each * self.organisers
        self.stock = self.preloaded + self.restock
        self.sellers: List[TicketSeller] = []
        self.stockers: List[TicketSeller] = []
        self.final_ms = LatencyRecorder()
        self.prelim_ms = LatencyRecorder()
        self.purchases = 0
        self.sold_out_seen = 0
        self.stock_sent = 0
        self.stocked = 0
        self.stock_errors = 0

    def build(self) -> None:
        self.env = SimEnvironment(seed=self.seed)
        self.zk = ZooKeeperCluster(
            self.env, leader_region=Region.IRL,
            follower_regions=(Region.FRK, Region.VRG),
            config=ZooKeeperConfig.fault_tolerant())

    def make_items(self) -> List[str]:
        return [f"ticket-{i}" for i in range(self.preloaded)]

    def install(self, items: List[str]) -> int:
        self.zk.preload_queue(self.queue, items)
        return len(items)

    def _seller(self, name: str, region: str, colocated: bool) -> TicketSeller:
        node = self.zk.add_client(name, region=region, connect_region=region,
                                  colocated=colocated)
        client = CorrectableClient(ZooKeeperQueueBinding(node, self.queue))
        self.correctable_clients.append(client)
        return TicketSeller(client, queue_path=self.queue,
                            threshold=self.threshold)

    def prepare(self) -> None:
        self.zk.enable_failure_detection()
        self.sellers = [self._seller(f"retailer-{i}", Region.FRK, True)
                        for i in range(self.retailers)]
        self.stockers = [self._seller(f"organiser-{i}", Region.IRL, False)
                         for i in range(self.organisers)]

    def _retail(self, seller: TicketSeller) -> None:
        def _buy() -> None:
            seller.purchase_ticket(_bought, use_icg=True)

        def _bought(outcome) -> None:
            if outcome.sold_out:
                self.sold_out_seen += 1
                if self.stocked < self.restock:
                    self.env.scheduler.schedule(self.empty_retry_ms, _buy)
                return
            self.purchases += 1
            self.final_ms.record(outcome.latency_ms)
            if outcome.used_preliminary:
                self.prelim_ms.record(outcome.latency_ms)
            _buy()

        _buy()

    def _organise(self, seller: TicketSeller, index: int) -> None:
        state = {"sent": 0}

        def _next() -> None:
            if state["sent"] == self.restock_each:
                return
            state["sent"] += 1
            self.stock_sent += 1
            seller.stock_ticket(f"restock-{index}-{state['sent']}",
                                on_done=_stocked)

        def _stocked(response: Dict[str, Any]) -> None:
            if "error" in response:
                self.stock_errors += 1
            else:
                self.stocked += 1
            _next()

        _next()

    def start(self) -> None:
        self.started_ms = self.env.now()
        # About 5.6 ms of simulated time per ticket sold, measured; the step
        # only has to give a couple of hundred slices, not land exactly.
        self.slice_ms = max(1.0, 5.6 * self.stock / SLICES)
        for seller in self.sellers:
            self._retail(seller)
        for index, seller in enumerate(self.stockers):
            self._organise(seller, index)

    def finished(self) -> bool:
        return self.purchases + self.stock_errors >= self.stock

    def drain(self) -> None:
        self.sold_out_ms = self.env.now()
        # The last purchases already sit behind committed dequeues; give the
        # followers a few heartbeats to apply them and the retailers' final
        # sold-out answers to arrive.  (Never idle: heartbeats tick forever.)
        self.env.run(until=self.env.now()
                     + 5 * self.zk.config.heartbeat_interval_ms)

    def attempted(self) -> int:
        return (sum(seller.purchases_attempted for seller in self.sellers)
                + self.stock_sent)

    def completed(self) -> int:
        """Operations answered: a sold-out answer is an answer too."""
        return (self.purchases + self.sold_out_seen
                + self.stocked + self.stock_errors)

    def outcome(self) -> Dict[str, Any]:
        # A request that exhausted its retries is answered with an error,
        # which the ticket app reports like an empty queue; the ZooKeeper
        # clients know the difference.
        failed = sum(c.failed_requests for c in self.zk.clients)
        from_prelim = sum(s.purchases_from_preliminary for s in self.sellers)
        return {
            "attempted": self.attempted(),
            "completed": self.completed() - failed,
            "shed": 0, "failed": failed,
            "measured_ops": self.purchases + self.stocked,
            "window_ms": self.sold_out_ms - self.started_ms,
            "final": self.final_ms, "prelim": self.prelim_ms,
            # "Preliminary used" here is the application's own decision.
            "matched": from_prelim, "diverged": 0,
            "missing_preliminary": self.purchases - from_prelim,
        }

    def audit(self) -> Dict[str, bool]:
        out = self.outcome()
        depths = [server.tree.child_count(self.queue)
                  for server in self.zk.servers]
        checks = {
            "offered_equals_completed_shed_failed":
                out["attempted"] == out["completed"] + out["failed"],
            "never_oversold": self.purchases <= self.stock,
            "sold_out": self.purchases == self.stock,
            "queues_equal_and_empty": depths == [0] * len(depths),
            "no_election": all(s.elections_started == 0
                               for s in self.zk.servers),
            # Only the periodic heartbeat ticks and their pings may remain.
            "only_periodic_timers_left":
                self.env.scheduler.pending(live_only=True)
                <= 3 * len(self.zk.servers),
        }
        checks.update(self._pool_checks())
        return checks

    def counters(self, out: Dict[str, Any]) -> Dict[str, float]:
        values = super().counters(out)
        values["metrics.samples_recorded_per_op"] = _ratio(
            self.final_ms.count + self.prelim_ms.count, out["completed"])
        return values


WORKLOADS = {cls.name: cls for cls in
             (CassClosedA, CassOpenFaultsB, ZkTickets, RingJoin400k)}
