"""The network's accounting against a list of sends.

Random programs of ``send`` / ``fused_send_to`` (self-sends included), node
crashes, node and region partitions, link degradation and drains are
played on a :class:`Network` and on a model that keeps nothing but the
list of sends.  After every step every
counter the network exposes — ``messages_sent``, ``messages_delivered``,
``messages_dropped``, ``link_stats``, ``bytes_between``, ``bytes_touching``,
``total_bytes`` — equals what the list says, and a link nobody used still
answers with the shared :data:`EMPTY_LINK_STATS` (no zero rows materialise).

A second property plays one random program twice, once with every hop sent
through ``send`` and once through ``fused_send_to``, and asserts that the
two runs cannot be told apart.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.environment import SimEnvironment
from repro.sim.network import EMPTY_LINK_STATS
from repro.sim.node import Node
from repro.sim.topology import Region, Topology

#: name -> (region, host): two regions, one pair colocated on a host.
_NODES = {"a": (Region.IRL, None), "b": (Region.IRL, "shared"),
          "c": (Region.FRK, "shared"), "d": (Region.VRG, None)}
_NAMES = sorted(_NODES)
_REGIONS = sorted({region for region, _ in _NODES.values()})


class _Endpoint(Node):
    def on_data(self, message):
        pass

    def fused_data(self):
        """The delivery preamble every protocol continuation opens with."""
        network = self.network
        if self.alive:
            network.messages_delivered += 1
        else:
            network.messages_dropped += 1


class _SendList:
    """What the counters must say, from the sends alone."""

    def __init__(self):
        self.alive = dict.fromkeys(_NAMES, True)
        self.partitions, self.region_partitions = set(), set()
        self.charged = []       # (src, dst, size)
        self.in_flight = []     # destinations of scheduled deliveries
        self.delivered = self.dropped = 0

    def send(self, src, dst, size):
        if not self.alive[src]:
            self.dropped += 1
            return
        self.charged.append((src, dst, size))
        regions = frozenset({_NODES[src][0], _NODES[dst][0]})
        if frozenset({src, dst}) in self.partitions \
                or regions in self.region_partitions \
                or not self.alive[dst]:
            self.dropped += 1
        else:
            self.in_flight.append(dst)

    def drain(self):
        for dst in self.in_flight:
            if self.alive[dst]:
                self.delivered += 1
            else:
                self.dropped += 1
        self.in_flight = []

    def link(self, src, dst):
        sizes = [size for s, d, size in self.charged if (s, d) == (src, dst)]
        return len(sizes), sum(sizes)

    def touching(self, name):
        return sum(size for s, d, size in self.charged if name in (s, d))


_name = st.sampled_from(_NAMES)
_region = st.sampled_from(_REGIONS)
_size = st.integers(min_value=1, max_value=5000)
_ACTIONS = st.one_of(
    st.tuples(st.sampled_from(["send", "fused"]), _name, _name, _size),
    st.tuples(st.sampled_from(["send", "fused"]), _name, _name, _size),
    st.tuples(st.sampled_from(["crash", "recover"]), _name),
    st.tuples(st.sampled_from(["partition", "heal"]), _name, _name),
    st.tuples(st.sampled_from(["partition_regions", "heal_regions"]),
              _region, _region),
    st.tuples(st.just("degrade"), _name, _name,
              st.floats(min_value=0.0, max_value=50.0)),
    st.tuples(st.just("restore"), _name, _name),
    st.tuples(st.just("drain")))


def _check(network, model):
    assert network.messages_sent == len(model.charged)
    assert network.messages_delivered == model.delivered
    assert network.messages_dropped == model.dropped
    assert network.total_bytes() == sum(size for _, _, size in model.charged)
    for src in _NAMES:
        assert network.bytes_touching(src) == model.touching(src)
        for dst in _NAMES:
            stats = network.link_stats(src, dst)
            assert (stats.messages, stats.bytes) == model.link(src, dst)
            assert (stats is EMPTY_LINK_STATS) == (stats.messages == 0)
            assert network.bytes_between(src, dst) == (
                model.link(src, dst)[1] + model.link(dst, src)[1])
    assert all(stats.messages for stats in network._links.values())


@settings(deadline=None)
@given(st.lists(_ACTIONS, max_size=40),
       st.sampled_from([0.0, 0.05]))
def test_counters_match_the_list_of_sends(program, jitter_fraction):
    env = SimEnvironment(seed=11,
                         topology=Topology(jitter_fraction=jitter_fraction))
    network = env.network
    nodes = {name: _Endpoint(name, region, network, host=host)
             for name, (region, host) in _NODES.items()}
    model = _SendList()
    _check(network, model)
    for action in program:
        kind = action[0]
        if kind == "send":
            _, src, dst, size = action
            network.send(src, dst, "data", size_bytes=size)
            model.send(src, dst, size)
        elif kind == "fused":
            _, src, dst, size = action
            before = len(model.in_flight)
            scheduled = network.fused_send_to(
                nodes[src], dst, size, nodes[dst].fused_data, ())
            model.send(src, dst, size)
            assert scheduled == (len(model.in_flight) > before)
        elif kind in ("crash", "recover"):
            getattr(nodes[action[1]], kind)()
            model.alive[action[1]] = kind == "recover"
        elif kind in ("partition", "heal"):
            getattr(network, kind)(action[1], action[2])
            edit = model.partitions.add if kind == "partition" \
                else model.partitions.discard
            edit(frozenset(action[1:]))
        elif kind in ("partition_regions", "heal_regions"):
            getattr(network, kind)(action[1], action[2])
            edit = model.region_partitions.add \
                if kind == "partition_regions" \
                else model.region_partitions.discard
            edit(frozenset(action[1:]))
        elif kind == "degrade":
            network.degrade_link(action[1], action[2], action[3])
        elif kind == "restore":
            network.restore_link(action[1], action[2])
        else:
            env.run_until_idle()
            model.drain()
        _check(network, model)
    env.run_until_idle()
    model.drain()
    _check(network, model)


# -- send against fused_send_to ------------------------------------------------

class _Receiver(Node):
    """Logs what it is handed, whichever entry point sent it."""

    def __init__(self, *args, log, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = log

    def on_data(self, message):
        self.log.append((self.scheduler.now(), self.name,
                         message.payload["hop"]))

    def fused_data(self, hop):
        network = self.network
        if self.alive:
            network.messages_delivered += 1
            self.log.append((self.scheduler.now(), self.name, hop))
        else:
            network.messages_dropped += 1


_HOP_ACTIONS = st.one_of(
    st.tuples(st.just("hop"), _name, _name, _size),
    st.tuples(st.just("hop"), _name, _name, _size),
    st.tuples(st.sampled_from(["crash", "recover"]), _name),
    st.tuples(st.sampled_from(["partition", "heal"]), _name, _name),
    st.tuples(st.sampled_from(["partition_regions", "heal_regions"]),
              _region, _region),
    st.tuples(st.just("degrade"), _name, _name,
              st.floats(min_value=0.0, max_value=50.0)),
    st.tuples(st.just("restore"), _name, _name),
    st.tuples(st.just("drain")))


def _play_hops(program, jitter_fraction, fused):
    """Play ``program`` with every hop sent through ``fused_send_to`` or
    through ``send``; returns everything the two must agree on."""
    env = SimEnvironment(seed=11,
                         topology=Topology(jitter_fraction=jitter_fraction))
    network = env.network
    trace = env.scheduler.start_trace()
    log = []
    nodes = {name: _Receiver(name, region, network, host=host, log=log)
             for name, (region, host) in _NODES.items()}
    scheduled = []
    for hop, action in enumerate(program):
        kind = action[0]
        if kind == "hop":
            _, src, dst, size = action
            if fused:
                scheduled.append(network.fused_send_to(
                    nodes[src], dst, size, nodes[dst].fused_data, (hop,)))
            else:
                pending = env.scheduler.pending()
                network.send(src, dst, "data", {"hop": hop}, size_bytes=size)
                scheduled.append(env.scheduler.pending() > pending)
        elif kind in ("crash", "recover"):
            getattr(nodes[action[1]], kind)()
        elif kind in ("degrade", "restore"):
            getattr(network, f"{kind}_link")(*action[1:])
        elif kind == "drain":
            env.run_until_idle()
        else:
            getattr(network, kind)(action[1], action[2])
    env.run_until_idle()
    links = {(src, dst): (stats.messages, stats.bytes)
             for (src, dst), stats in network._links.items()}
    return (log, trace, scheduled, links, network.messages_sent,
            network.messages_delivered, network.messages_dropped,
            network.total_bytes(), env.now(),
            env.topology._rng.getstate())


@settings(deadline=None)
@given(st.lists(_HOP_ACTIONS, max_size=40),
       st.sampled_from([0.0, 0.05]))
def test_send_and_fused_send_to_are_the_same_hop(program, jitter_fraction):
    """``send`` is ``fused_send_to`` plus a ``Message``: the same deliveries
    at the same instants in the same order, the same counters and link rows,
    and the same jitter draws."""
    assert _play_hops(program, jitter_fraction, fused=False) \
        == _play_hops(program, jitter_fraction, fused=True)
