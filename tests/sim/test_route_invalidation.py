"""A membership edit or a run-time fault takes effect on the very next hop.

Senders cache routes (``Node._fused_routes``, the network's own route table)
and coordinators cache fan-out plans (``CassandraReplica._fused_plans`` by
key, ``_slot_plans`` by ring slot).  Routes are fixed once built: the
topology cannot be edited, and what changes a latency mid-run
(``degrade_link``) is checked on every hop, outside the route.  What can
still move under a cache is the membership: a ring-epoch bump changes which
replicas a plan targets, and a late ``register`` adds an endpoint.  The
faults (a degraded link, a partition, a crash, a slowdown) never touch a
cache, and every hop must check them.

Each scenario warms every cache, makes one such edit, and then sends one
``send`` and one ``fused_send_to`` over every kind of link (WAN,
intra-region, loopback) and coordinates a read of every key.  What those
hops did (delay, link charge, which replicas were contacted, what the
client saw and when) must equal what a cold stack does that had the edit
happen before its first hop.  The mutants at the bottom skip the plan drop
a ring-epoch bump triggers, or a hop's fault check, and must be caught.
"""

import pytest
from history import RecordingSink
from ring_edits import commit_change

from repro.cassandra_sim.cluster import CassandraCluster
from repro.cassandra_sim.config import CassandraConfig
from repro.cassandra_sim.replica import CassandraReplica
from repro.sim.environment import SimEnvironment
from repro.sim.node import Node
from repro.sim.rand import derive_rng
from repro.sim.topology import Region, Topology

_KEYS = [f"k{i}" for i in range(12)]
_REPLICAS = [("r-frk", Region.FRK), ("r-irl", Region.IRL),
             ("r-vrg", Region.VRG), ("r-frk2", Region.FRK)]
#: Simulated instant of the edit; the warm-up is long over by then, and a
#: cold stack idles to the same instant so both add delays to the same clock.
_EDIT_AT_MS = 5000.0


class _Probe(Node):
    def __init__(self, name, region, network, host=None):
        super().__init__(name, region, network, host=host)
        self.arrivals = []

    def on_probe(self, message):
        self.arrivals.append(
            ("send", self.scheduler.now() - message.send_time))

    def fused_probe(self, sent_at):
        self.arrivals.append(("fused", self.scheduler.now() - sent_at))


class _Stack:
    def __init__(self):
        self.env = SimEnvironment(seed=9, topology=Topology(
            rng=derive_rng(9, "topology"), jitter_fraction=0.0))
        network = self.env.network
        self.source = _Probe("p-src", Region.IRL, network, host="h0")
        self.probes = [_Probe("p-wan", Region.FRK, network),
                       _Probe("p-lan", Region.IRL, network),
                       _Probe("p-host", Region.IRL, network, host="h0")]
        self.cluster = CassandraCluster(
            self.env, CassandraConfig(vnodes_per_node=4), nodes=_REPLICAS)
        self.cluster.preload({key: f"v-{key}" for key in _KEYS})
        self.client = self.cluster.add_client("client", Region.IRL, Region.FRK)

    def add_late_probe(self):
        self.probes.append(_Probe("p-late", Region.VRG, self.env.network))

    def traffic(self):
        """A send and a fused send per probe link, a read per key; returns
        what the client saw."""
        env, network, source = self.env, self.env.network, self.source
        for probe in self.probes:
            network.send(source.name, probe.name, "probe", size_bytes=120)
            network.fused_send_to(source, probe.name, 75, probe.fused_probe,
                                  (env.now(),))
        seen = []
        for key in _KEYS:
            self.client.lean_read(key, 2, True, RecordingSink(calls=seen))
        env.run_until_idle()
        return seen

    def links(self):
        return {link: (stats.messages, stats.bytes)
                for link, stats in self.env.network._links.items()}

    def observe(self):
        """Idle to the edit instant, then one round of traffic: every delay,
        every link charge and everything the client saw."""
        self.env.run(until=_EDIT_AT_MS)
        network = self.env.network
        before = self.links()
        counters = (network.messages_sent, network.messages_delivered,
                    network.messages_dropped)
        for probe in self.probes:
            del probe.arrivals[:]
        seen = self.traffic()
        charged = {}
        for link, (messages, size) in self.links().items():
            was = before.get(link, (0, 0))
            if (messages, size) != was:
                charged[link] = (messages - was[0], size - was[1])
        return {
            "arrivals": {probe.name: probe.arrivals for probe in self.probes},
            "reads": seen,
            "charged": charged,
            "counters": tuple(
                now - was for now, was in zip(
                    (network.messages_sent, network.messages_delivered,
                     network.messages_dropped), counters)),
        }


def _leave_ring(stack):
    """A ring-epoch bump: r-frk2 leaves the ring (its node stays up)."""
    partitioner = stack.cluster.partitioner
    commit_change(partitioner, partitioner.plan_decommission("r-frk2"))


def _degrade_link(stack):
    """A WAN slowdown: every FRK-IRL hop pays 40 ms more, one way."""
    stack.env.network.degrade_link(f"region:{Region.FRK}",
                                   f"region:{Region.IRL}", 40.0)


def _partition(stack):
    """A probe link and a replica-to-replica link are cut."""
    stack.env.network.partition("p-src", "p-wan")
    stack.env.network.partition("r-frk", "r-frk2")


def _crash(stack):
    """A probe and a replica stop: hops to them are dropped."""
    stack.env.network.node("p-lan").crash()
    stack.cluster.replica_by_name("r-frk2").crash()


def _slow_down(stack):
    """The coordinators in FRK serve three times slower."""
    for name in ("r-frk", "r-frk2"):
        stack.cluster.replica_by_name(name).slow_down(3.0)


#: name -> the edit.  The last four are run-time faults: routes never see
#: them, so every hop must check them itself.
_EDITS = {
    "ring_epoch": _leave_ring,
    "late_register": _Stack.add_late_probe,
    "degrade_link": _degrade_link,
    "partition": _partition,
    "crash": _crash,
    "slow_down": _slow_down,
}


def _warm():
    warm = _Stack()
    warm.traffic()
    assert warm.source._fused_routes and warm.env.network._routes
    assert warm.cluster.replica_by_name("r-frk")._fused_plans
    warm.env.run(until=_EDIT_AT_MS)
    return warm


def _warm_then_edit(edit):
    warm = _warm()
    edit(warm)
    return warm


def _cold(edit):
    cold = _Stack()
    edit(cold)
    return cold


@pytest.mark.parametrize("name", sorted(_EDITS))
def test_edit_takes_effect_on_the_next_hop(name):
    edit = _EDITS[name]
    assert _warm_then_edit(edit).observe() == _cold(edit).observe()


@pytest.mark.parametrize("name", sorted(_EDITS))
def test_every_edit_changes_what_the_hops_do(name):
    """The scenarios are not vacuous: against a stack that skipped the edit
    the observation differs."""
    assert _warm_then_edit(_EDITS[name]).observe() != _warm().observe()


def test_a_late_register_keeps_every_warm_route():
    """Registering a node changes no existing endpoint, so it invalidates
    nothing: fig15's joining node registers mid-run and a cluster build
    registers hundreds (the join cell's table is pinned byte for byte by the
    ``fig15`` figure hash in ``tests/bench/test_determinism.py``)."""
    stack = _Stack()
    stack.traffic()
    network = stack.env.network
    coordinator = stack.cluster.replica_by_name("r-frk")
    held = [dict(cache) for cache in (
        network._routes, stack.source._fused_routes, coordinator._fused_plans)]
    assert all(held)
    stack.add_late_probe()
    stack.cluster.join_node("r-late", Region.IRL)
    for cache, was in zip((network._routes, stack.source._fused_routes,
                           coordinator._fused_plans), held):
        assert all(cache[key] is value for key, value in was.items())
    stack.env.run_until_idle()
    assert stack.cluster.partitioner.contains("r-late")
    assert all(network._routes[key] is value
               for key, value in held[0].items())


def test_a_skipped_plan_drop_is_caught(monkeypatch):
    """Plans are dropped only because ``_fused_plan`` sees the ring epoch
    move; a coordinator that kept them would contact the replica that
    left, and the scenario sees it."""
    expected = _cold(_leave_ring).observe()
    warm = _warm()
    monkeypatch.setattr(CassandraReplica, "_drop_plans", lambda self: None)
    _leave_ring(warm)
    assert warm.observe() != expected


def test_keys_of_one_ring_slot_share_one_plan_until_an_edit():
    """A coordinator builds one fan-out plan per ring slot and caches that
    same object for every key of the slot; each ring-epoch bump (a node
    leaves, then joins again) drops it, for every key at once."""
    stack = _Stack()
    coordinator = stack.cluster.replica_by_name("r-frk")
    partitioner = stack.cluster.partitioner
    by_slot = {}
    for key in (f"k{i}" for i in range(64)):
        by_slot.setdefault(partitioner.replicas_for(key), []).append(key)
    first, second = next(keys for keys in by_slot.values()
                         if len(keys) > 1)[:2]
    plan = coordinator._fused_plan(first)
    assert coordinator._fused_plan(second) is plan
    assert coordinator._slot_plans[partitioner.replicas_for(first)] is plan
    for plan_change in (partitioner.plan_decommission, partitioner.plan_join):
        commit_change(partitioner, plan_change("r-frk2"))
        fresh = coordinator._fused_plan(second)
        assert fresh is not plan and coordinator._fused_plan(first) is fresh
        assert all(kept is not plan
                   for kept in coordinator._slot_plans.values())
        plan = fresh


@pytest.mark.parametrize("name, check", [
    ("degrade_link", "link_extra_ms"),
    ("partition", "is_partitioned"),
])
def test_a_skipped_hop_check_is_caught(monkeypatch, name, check):
    """A run-time fault reaches warm routes only because every hop asks the
    network about it; a hop that stopped asking is seen by the scenario."""
    edit = _EDITS[name]
    expected = _cold(edit).observe()
    warm = _warm_then_edit(edit)
    monkeypatch.setattr(type(warm.env.network), check,
                        lambda self, src, dst: False)
    assert warm.observe() != expected
