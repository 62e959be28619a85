"""Recorded runs over real Cassandra clusters (importable as ``runs``):
each records every operation in a :class:`history.History` and observes
the store while it runs to idle.
"""

from __future__ import annotations

from itertools import count
from typing import Optional, Tuple

from fault_slices import REGIONS
from history import History

from repro.bench.common import (cassandra_config_for, make_generator_factory,
                                make_kv_issue, run_until_settled)
from repro.cassandra_sim.cluster import CassandraCluster
from repro.cassandra_sim.config import CassandraConfig
from repro.core.cluster_spec import ClusterSpec
from repro.faults import FaultInjector
from repro.faults.scenarios import cassandra_aliases
from repro.faults.schedule import FaultSchedule, FaultScheduleBuilder
from repro.sim.environment import SimEnvironment
from repro.sim.rand import derive_rng
from repro.workloads.arrivals import make_arrival_process
from repro.workloads.runner import ClosedLoopRunner, OpenLoopRunner
from repro.workloads.ycsb import workload_by_name

KEYS = [f"key{i}" for i in range(24)]
INITIAL = {key: f"{key}:0" for key in KEYS}


def small_cluster(nodes: int = 3, seed: int = 21, **config):
    """Fault-tolerant replicas over the three regions, ``KEYS`` preloaded,
    one client per region contacting the next region's replica."""
    env = SimEnvironment(seed=seed)
    members = [(f"cassandra-{i}-{REGIONS[i % 3]}", REGIONS[i % 3])
               for i in range(nodes)]
    cluster = CassandraCluster(env, CassandraConfig.fault_tolerant(**config),
                               nodes=members)
    cluster.preload(INITIAL)
    clients = [cluster.add_client(f"client-{region}", region, contact,
                                  fallbacks=True)
               for region, contact in zip(REGIONS, REGIONS[1:] + REGIONS[:1])]
    return env, cluster, clients


def drive(env, cluster, clients, schedule: Optional[FaultSchedule],
          duration_ms: float, seed: int, rate_ops_s: float = 400.0) -> History:
    """Poisson reads (ICG, R=2) and writes (W=1/2) of ``KEYS``, the
    ``n``-th write's value ``"<key>:<n>"``; run to idle."""
    rng = derive_rng(seed, "fault-properties")
    history = History(env.scheduler.now, INITIAL.get)
    if schedule is not None:
        FaultInjector(env, schedule=schedule,
                      aliases=cassandra_aliases(cluster)).arm()

    def _issue() -> None:
        n = len(history.ops) + 1
        client = clients[n % len(clients)]
        key = rng.choice(KEYS)
        if rng.random() < 0.4:
            w = rng.choice((1, 2))
            client.lean_write(key, f"{key}:{n}", w, history.invoke(
                "update", key, w, f"{key}:{n}"))
        else:
            client.lean_read(key, 2, True,
                             history.invoke("read", key, 2, icg=True))

    at = 0.0
    while True:
        at += rng.expovariate(rate_ops_s / 1000.0)
        if at >= duration_ms:
            break
        env.scheduler.schedule_call_at(at, _issue)
    with History.observe():
        env.run_until_idle()
    return history


def machinery_run():
    """:func:`drive` through a schedule known to bite: failovers,
    coordinator retries, downgrades and failures all happen."""
    schedule = (FaultScheduleBuilder()
                .slow_window("replica:1", 100.0, 1_500.0, factor=120.0)
                .crash_window("replica:0", 300.0, 1_400.0)
                .crash_window("replica:2", 900.0, 700.0)
                .build())
    env, cluster, clients = small_cluster(seed=4)
    return env, cluster, clients, drive(env, cluster, clients, schedule,
                                        2_400.0, seed=4)


def confirmation_run() -> History:
    """fig08's ``*CC2`` A-latest cell, 300 ms of it, in three closed loops:
    one read's confirmation overtakes its preliminary."""
    system, seed = "*CC2", 42
    spec = workload_by_name("A").with_distribution("latest")
    scenario = ClusterSpec(seed=seed, record_count=1_000,
                           client_regions=REGIONS,
                           config=cassandra_config_for(system)).build()
    env = scenario.env
    history = History(env.scheduler.now,
                      scenario.dataset.initial_items().get)
    runners = [
        ClosedLoopRunner(
            scheduler=env.scheduler,
            issue=history.issue(make_kv_issue(client, system)),
            make_generator=make_generator_factory(
                spec, scenario.dataset, seed,
                f"fig08-{system}-A-latest-{region}"),
            threads=40, duration_ms=300.0, warmup_ms=0.0, cooldown_ms=0.0,
            label=f"fig08-{system}-{region}")
        for region, client in scenario.clients.items()]
    with History.observe():
        run_until_settled(env, runners, 60_000.0)
    return history


def load_run(seed: int, schedule: FaultSchedule, closed: bool = False,
             nodes: int = 3, decommission: Optional[Tuple[int, float]] = None,
             duration_ms: float = 3_000.0):
    """``CC2`` reads and W=1 updates of 200 keys from 30 open-loop sessions
    at 300 ops/s (or 30 closed-loop threads) over the three regions'
    clients, the first and last tenth unmeasured; ``decommission=(i,
    at_ms)`` decommissions ``replica:<i>``.  Returns ``(cluster, history)``.
    """
    built = ClusterSpec(seed=seed, nodes=nodes, record_count=200,
                        client_regions=REGIONS, client_fallbacks=True,
                        config=CassandraConfig.fault_tolerant()).build()
    env, cluster = built.env, built.cluster
    history = History(env.scheduler.now, built.dataset.initial_items().get)
    if decommission is not None:
        target, at_ms = decommission
        cluster.decommission_node(cluster.replicas[target].name, at_ms=at_ms)
    issues = [make_kv_issue(built.client_in(region), "CC2")
              for region in REGIONS]
    turns = count()

    def issue(op_type, key, value, sink, session_id=None):
        turn = next(turns) if session_id is None else session_id
        issues[turn % 3](op_type, key, value, sink)

    common = dict(
        scheduler=env.scheduler, issue=history.issue(issue),
        make_generator=make_generator_factory(
            workload_by_name("A"), built.dataset, seed, "check"),
        duration_ms=duration_ms, warmup_ms=duration_ms / 10,
        cooldown_ms=duration_ms / 10, label="check",
        faults=FaultInjector(env, schedule=schedule,
                             aliases=cassandra_aliases(cluster)))
    runner = ClosedLoopRunner(threads=30, **common) if closed else \
        OpenLoopRunner(arrivals=make_arrival_process(
            "poisson", 300.0, derive_rng(seed, "check:arrivals")),
            sessions=30, **common)
    with History.observe():
        runner.run()
        env.run_until_idle()
    return cluster, history
