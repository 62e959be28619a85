"""Small ZooKeeper runs shared by the determinism goldens, the drain audit
and the failover suite (importable as ``zk_slices``, like ``fault_slices``).

Four shapes, one per part of the request path: a fault-free fig09 cell
(client → follower → leader → Zab, no timers at all), a ticket sale shaped
like perfbench's ``zk-tickets`` (heartbeats on, colocated ICG retailers at a
follower against organisers at the leader), fig13's leader crash (election,
sync, re-forwarded writes, re-proposed orphans, client failover) and a
zombie leader partitioned away and healed (stale-epoch proposals earning a
leader-info redirect, retransmission, a snapshot rejoin).  Each
returns its run record and the clusters it built.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterator, List, Tuple

from history import RecordingSink

from repro.apps.tickets import PurchaseOutcome, TicketSeller
from repro.bindings.zookeeper import ZooKeeperQueueBinding
from repro.core.client import CorrectableClient
from repro.metrics.latency import LatencyRecorder
from repro.sim.environment import SimEnvironment
from repro.sim.topology import Region
from repro.zookeeper_sim.cluster import ZooKeeperCluster
from repro.zookeeper_sim.config import ZooKeeperConfig

REGIONS = (Region.IRL, Region.FRK, Region.VRG)

#: ``ZooKeeperCluster.in_flight()`` once a run has drained.
DRAINED = {"client_pending": 0, "forwarded": 0, "origin_requests": 0,
           "orphan_origins": 0, "proposals": 0}


@contextlib.contextmanager
def instances_built(cls) -> Iterator[List[Any]]:
    """Every ``cls`` constructed inside, in construction order (the figure
    harnesses build their clusters internally)."""
    built: List[Any] = []
    cls_init = cls.__init__

    def recording_init(self, *args, **kwargs):
        cls_init(self, *args, **kwargs)
        built.append(self)

    cls.__init__ = recording_init
    try:
        yield built
    finally:
        cls.__init__ = cls_init


@contextlib.contextmanager
def traced_schedulers() -> Iterator[List[list]]:
    """Every Scheduler built inside records its ``(time, seq)`` trace; the
    figure harnesses build their environments internally."""
    from repro.sim.scheduler import Scheduler

    traces: List[list] = []
    scheduler_init = Scheduler.__init__

    def traced_init(self, *args, **kwargs):
        scheduler_init(self, *args, **kwargs)
        traces.append(self.start_trace())

    Scheduler.__init__ = traced_init
    try:
        yield traces
    finally:
        Scheduler.__init__ = scheduler_init


def cluster_record(cluster: ZooKeeperCluster) -> Dict[str, Any]:
    """Everything countable about a finished run, host-independent."""
    network = cluster.env.network
    return {
        "events": cluster.env.scheduler.events_executed,
        "network": (network.messages_sent, network.messages_delivered,
                    network.messages_dropped, network.total_bytes()),
        "servers": [
            (server.name, server.epoch, server.is_leader,
             server.commit_log.last_applied, server.transactions_applied,
             server.preliminaries_sent, server.reads_served,
             server.elections_started, server.promotions,
             server.syncs_served, server.snapshots_served,
             server.snapshots_received)
            for server in cluster.servers],
        "clients": [(client.name, client.requests_sent, client.retries,
                     client.failed_requests) for client in cluster.clients],
    }


def fig09_cells(samples: int = 30, seed: int = 42
                ) -> Tuple[List[Dict], List[ZooKeeperCluster]]:
    """fig09 at quick scale, a follower-connected and a leader-connected
    configuration (each runs CZK then vanilla ZK)."""
    from repro.bench.fig09_zk_latency import run_fig09_point
    from repro.bench.figures import FIG09

    points = FIG09.points(samples=samples, seed=seed)
    with instances_built(ZooKeeperCluster) as clusters:
        records = [run_fig09_point(points[index]) for index in (2, 1)]
    return records, clusters


def tickets_cell(preloaded: int = 60, restock_each: int = 40, seed: int = 7
                 ) -> Tuple[Dict, List[ZooKeeperCluster]]:
    """perfbench's ``zk-tickets`` in miniature: four colocated ICG
    retailers at the FRK follower buy while four organisers restock at the
    IRL leader, heartbeats ticking, until the stock is sold out."""
    queue, threshold, empty_retry_ms = "/tickets", 20, 5.0
    env = SimEnvironment(seed=seed)
    cluster = ZooKeeperCluster(env, leader_region=Region.IRL,
                               follower_regions=(Region.FRK, Region.VRG),
                               config=ZooKeeperConfig.fault_tolerant())
    cluster.preload_queue(queue, [f"ticket-{i}" for i in range(preloaded)])
    cluster.enable_failure_detection()

    def seller(name: str, region: str, colocated: bool) -> TicketSeller:
        node = cluster.add_client(name, region=region, connect_region=region,
                                  colocated=colocated)
        return TicketSeller(
            CorrectableClient(ZooKeeperQueueBinding(node, queue)),
            queue_path=queue, threshold=threshold)

    retailers = [seller(f"retailer-{i}", Region.FRK, True) for i in range(4)]
    organisers = [seller(f"organiser-{i}", Region.IRL, False)
                  for i in range(4)]
    restock = restock_each * len(organisers)
    stock = preloaded + restock
    final_ms, prelim_ms = LatencyRecorder("final"), LatencyRecorder("prelim")
    state = {"purchases": 0, "sold_out_seen": 0, "stocked": 0,
             "stock_errors": 0}
    tickets: List[Any] = []

    def retail(retailer: TicketSeller) -> None:
        def buy() -> None:
            retailer.purchase_ticket(bought, use_icg=True)

        def bought(outcome) -> None:
            if outcome.sold_out:
                state["sold_out_seen"] += 1
                if state["stocked"] < restock:
                    env.scheduler.schedule(empty_retry_ms, buy)
                return
            state["purchases"] += 1
            tickets.append(outcome.ticket)
            final_ms.record(outcome.latency_ms)
            if outcome.used_preliminary:
                prelim_ms.record(outcome.latency_ms)
            buy()

        buy()

    def organise(organiser: TicketSeller, index: int) -> None:
        sent = {"n": 0}

        def restock_next() -> None:
            if sent["n"] == restock_each:
                return
            sent["n"] += 1
            organiser.stock_ticket(f"restock-{index}-{sent['n']}",
                                   on_done=stocked)

        def stocked(response: Dict[str, Any]) -> None:
            state["stock_errors" if "error" in response else "stocked"] += 1
            restock_next()

        restock_next()

    for retailer in retailers:
        retail(retailer)
    for index, organiser in enumerate(organisers):
        organise(organiser, index)
    while state["purchases"] + state["stock_errors"] < stock:
        env.run(until=env.now() + 50.0)
    sold_out_ms = env.now()
    # The followers still apply the last commits and the retailers' final
    # sold-out answers are in flight (never idle: heartbeats tick forever).
    env.run(until=sold_out_ms + 5 * cluster.config.heartbeat_interval_ms)
    record = dict(
        state, stock=stock, sold_out_ms=sold_out_ms,
        tickets=tickets,
        final=final_ms.summary(), prelim=prelim_ms.summary(),
        from_preliminary=[r.purchases_from_preliminary for r in retailers],
        attempted=[r.purchases_attempted for r in retailers],
        depths=[s.tree.child_count(queue) for s in cluster.servers])
    return record, [cluster]


def tickets_leader_crash(purchases_each: int = 12, seed: int = 11
                         ) -> Tuple[Dict, List[ZooKeeperCluster]]:
    """A ticket sale through a ten-second leader crash.  Two retailers are
    pinned to the IRL leader (no failover: their ICG purchases exhaust
    every retry and fail while it is down), two fail over from the FRK
    follower, and two organisers restock from VRG across the election.
    Every retailer makes ``purchases_each`` attempts whatever the outcome."""
    queue, preloaded = "/tickets", 30
    env = SimEnvironment(seed=seed)
    cluster = ZooKeeperCluster(env, leader_region=Region.IRL,
                               follower_regions=(Region.FRK, Region.VRG),
                               config=ZooKeeperConfig.fault_tolerant())
    cluster.preload_queue(queue, [f"ticket-{i}" for i in range(preloaded)])
    cluster.enable_failure_detection()
    old_leader = cluster.leader

    def seller(name: str, region: str, failover: bool) -> TicketSeller:
        node = cluster.add_client(name, region=region, connect_region=region,
                                  failover=failover)
        return TicketSeller(
            CorrectableClient(ZooKeeperQueueBinding(node, queue)),
            queue_path=queue, threshold=20)

    retailers = ([seller(f"pinned-{i}", Region.IRL, False) for i in range(2)]
                 + [seller(f"roaming-{i}", Region.FRK, True)
                    for i in range(2)])
    organisers = [seller(f"organiser-{i}", Region.VRG, True)
                  for i in range(2)]
    outcomes: List[Tuple] = []
    stocked: List[Tuple] = []

    def retail(index: int, retailer: TicketSeller) -> None:
        def buy() -> None:
            if retailer.purchases_attempted < purchases_each:
                retailer.purchase_ticket(bought, use_icg=index % 2 == 0)

        def bought(outcome: PurchaseOutcome) -> None:
            outcomes.append((env.now(), index, outcome.ticket,
                             outcome.latency_ms, outcome.used_preliminary,
                             outcome.sold_out, outcome.remaining))
            env.scheduler.schedule(150.0, buy)

        buy()

    def organise(index: int, organiser: TicketSeller) -> None:
        def restock(n: int) -> None:
            if n < 20:
                organiser.stock_ticket(
                    f"restock-{index}-{n}",
                    on_done=lambda response: (
                        stocked.append((env.now(), index, n,
                                        "error" in response)),
                        env.scheduler.schedule(400.0, restock, n + 1)))

        restock(0)

    for index, retailer in enumerate(retailers):
        retail(index, retailer)
    for index, organiser in enumerate(organisers):
        organise(index, organiser)
    env.scheduler.schedule(700.0, old_leader.crash)
    env.scheduler.schedule(10_700.0, old_leader.recover)
    env.run(until=60_000.0)
    record = {
        "outcomes": outcomes, "stocked": stocked,
        "from_preliminary": [r.purchases_from_preliminary for r in retailers],
        "from_final": [r.purchases_from_final for r in retailers],
        "sold_out": [r.sold_out_responses for r in retailers],
        "invocations": [(s.client.invocations, s.client.icg_invocations)
                        for s in retailers + organisers],
        "depths": [s.tree.child_count(queue) for s in cluster.servers],
    }
    return record, [cluster]


def leader_crash(seed: int = 42) -> Tuple[Dict, List[ZooKeeperCluster]]:
    """fig13's CZK queue workload through a leader crash and recovery, at
    the figure's full scale."""
    from repro.bench.fig13_faults import run_fig13_point
    from repro.bench.figures import FIG13

    (point,) = FIG13.points(scenarios=(), seed=seed)
    with instances_built(ZooKeeperCluster) as clusters:
        record = run_fig13_point(point)
    return record, clusters


def zombie_leader(seed: int = 7) -> Tuple[Dict, List[ZooKeeperCluster]]:
    """Three failover clients enqueue every 100 ms for 12 s; the leader is
    partitioned from both followers (but alive) from 3 s to 8 s."""
    env = SimEnvironment(seed=seed)
    cluster = ZooKeeperCluster(env, leader_region=Region.IRL,
                               follower_regions=(Region.FRK, Region.VRG),
                               config=ZooKeeperConfig.fault_tolerant())
    cluster.preload_queue("/queue", [])
    cluster.enable_failure_detection()
    clients = [cluster.add_client(f"c{i}", region, connect_region=region,
                                  failover=True)
               for i, region in enumerate(REGIONS)]
    old_leader = cluster.leader
    answers: List[Tuple] = []
    sent = {"n": 0}

    def answered(answer: Tuple) -> None:
        ok = answer.kind == "final"
        answers.append((env.now(), ok, answer.latency_ms,
                        answer.value["name"] if ok else None))

    def tick() -> None:
        for client in clients:
            sent["n"] += 1
            client.submit_sink("enqueue", "/queue", RecordingSink(answered),
                               f"v{sent['n']}")
        if env.now() < 12_000.0:
            env.scheduler.schedule(100.0, tick)

    def cut() -> None:
        for follower in cluster.followers:
            env.network.partition(old_leader.name, follower.name)

    def heal() -> None:
        for follower in cluster.followers:
            env.network.heal(old_leader.name, follower.name)

    env.scheduler.schedule(0.0, tick)
    env.scheduler.schedule(3_000.0, cut)
    env.scheduler.schedule(8_000.0, heal)
    env.run(until=60_000.0)
    record = {
        "sent": sent["n"],
        "ok": sum(1 for answer in answers if answer[1]),
        "failed": sum(1 for answer in answers if not answer[1]),
        "answers": answers,
        "queue": [server.tree.get_children("/queue")
                  for server in cluster.servers],
    }
    return record, [cluster]


#: name -> run, in golden order.
RUNS = {"fig09-cells": fig09_cells, "tickets": tickets_cell,
        "fig13-leader-crash": leader_crash, "zombie-leader": zombie_leader}
