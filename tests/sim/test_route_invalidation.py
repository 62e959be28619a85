"""An edit to anything a cached route depends on takes effect on the very
next hop.

Senders cache routes (``Node._fused_routes``, the network's own route table)
and coordinators cache fan-out plans (``CassandraReplica._fused_plans`` by
key, ``_slot_plans`` by ring slot).
Each scenario warms all of them, makes one edit — a topology latency, the
jitter bound, ``reset_stats``, a ring-epoch bump, a late ``register`` — and
then sends one ``send`` and one ``fused_send_to`` over every kind of link
(WAN, intra-region, loopback) and coordinates a read of every key.  What
those hops did (delay, link charge, which replicas were contacted, what the
client saw and when) must equal what a cold stack does that was *built* with
the new setting and never cached anything else.

Nothing on the send path checks that a cached route is current — the
topology and ``reset_stats`` *push* the invalidation down (``Network.
_drop_routes`` → ``Node._drop_routes`` → the replica's plans) — so the
mutants at the bottom cut that chain at each link and must be caught.
"""

import pytest
from history import RecordingSink

from repro.cassandra_sim.cluster import CassandraCluster
from repro.cassandra_sim.config import CassandraConfig
from repro.cassandra_sim.replica import CassandraReplica
from repro.sim.environment import SimEnvironment
from repro.sim.network import Network
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
    def __init__(self, **topology):
        topology.setdefault("jitter_fraction", 0.0)
        self.env = SimEnvironment(seed=9, topology=Topology(
            rng=derive_rng(9, "topology"), **topology))
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


def _set(attribute, value):
    return lambda stack: setattr(stack.env.topology, attribute, value)


#: name -> (the edit, the constructor settings of the cold reference stack;
#: ``None`` when the edit is an event, not a setting, and the cold stack
#: simply has it happen before its first hop).
_EDITS = {
    "set_rtt": (
        lambda stack: stack.env.topology.set_rtt(Region.IRL, Region.FRK, 64.0),
        {"rtts": {frozenset({Region.IRL, Region.FRK}): 64.0}}),
    "intra_region_rtt_ms": (_set("intra_region_rtt_ms", 9.0),
                            {"intra_region_rtt_ms": 9.0}),
    "loopback_rtt_ms": (_set("loopback_rtt_ms", 1.5),
                        {"loopback_rtt_ms": 1.5}),
    "jitter_fraction": (_set("jitter_fraction", 0.3),
                        {"jitter_fraction": 0.3}),
    "reset_stats": (lambda stack: stack.env.network.reset_stats(), None),
    "ring_epoch": (
        lambda stack: stack.cluster.partitioner.decommission("r-frk2"), None),
    "late_register": (_Stack.add_late_probe, None),
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


def _cold(edit, settings):
    if settings is not None:
        return _Stack(**settings)
    cold = _Stack()
    edit(cold)
    return cold


@pytest.mark.parametrize("name", sorted(_EDITS))
def test_edit_takes_effect_on_the_next_hop(name):
    edit, settings = _EDITS[name]
    warm, cold = _warm_then_edit(edit), _cold(edit, settings)
    assert warm.observe() == cold.observe()
    if name == "reset_stats":
        # Not only the differences: the counters restarted from zero.
        assert warm.links() == cold.links()
        assert warm.env.network.messages_sent == cold.env.network.messages_sent
        assert warm.env.network.total_bytes() == cold.env.network.total_bytes()


@pytest.mark.parametrize("name", sorted(set(_EDITS) - {"reset_stats"}))
def test_every_edit_changes_what_the_hops_do(name):
    """The scenarios are not vacuous: against a stack that skipped the edit
    the observation differs (``reset_stats`` changes only absolute counts)."""
    edit, _ = _EDITS[name]
    assert _warm_then_edit(edit).observe() != _warm().observe()


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


#: Where the push can be cut -> the edits that only reach the hops through
#: that link of the chain (jitter lives on the network, not in a route; no
#: coordinator plan crosses a loopback link).
_CUTS = {
    "network": (lambda patch: patch.setattr(
        Network, "_drop_routes", lambda self: None),
        ["set_rtt", "intra_region_rtt_ms", "loopback_rtt_ms",
         "jitter_fraction", "reset_stats"]),
    "node": (lambda patch: patch.setattr(
        Node, "_drop_routes", lambda self: None),
        ["set_rtt", "intra_region_rtt_ms", "loopback_rtt_ms", "reset_stats"]),
    "replica": (lambda patch: patch.setattr(
        CassandraReplica, "_drop_routes", Node._drop_routes),
        ["set_rtt", "intra_region_rtt_ms", "reset_stats"]),
}


@pytest.mark.parametrize("cut,name", [
    (cut, name) for cut, (_, names) in sorted(_CUTS.items())
    for name in names])
def test_a_skipped_push_is_caught(cut, name, monkeypatch):
    edit, settings = _EDITS[name]
    cold = _cold(edit, settings)
    expected = cold.observe(), cold.links()
    warm = _warm()
    with monkeypatch.context() as patch:
        _CUTS[cut][0](patch)
        edit(warm)
    assert (warm.observe(), warm.links()) != expected


def test_keys_of_one_ring_slot_share_one_plan_until_an_edit():
    """A coordinator builds one fan-out plan per ring slot and caches that
    same object for every key of the slot; a pushed route drop and a
    ring-epoch bump each drop it, for every key at once."""
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
    for drop in (stack.env.network.reset_stats,
                 lambda: partitioner.decommission("r-frk2")):
        drop()
        fresh = coordinator._fused_plan(second)
        assert fresh is not plan and coordinator._fused_plan(first) is fresh
        assert all(kept is not plan
                   for kept in coordinator._slot_plans.values())
        plan = fresh
