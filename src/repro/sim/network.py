"""Message-passing network with latency and byte accounting.

Nodes register under a unique name; :meth:`Network.send` delivers a
:class:`Message` to the destination node's ``handle_message`` after a one-way
delay drawn from the :class:`~repro.sim.topology.Topology`.  Every message's
size is charged to the (source, destination) link, which is what the paper's
bandwidth figures (Figures 8 and 10) measure on the client-replica links.

A hop pays for what the hop itself decides — liveness of both ends, the
link charge, the jitter draw, the scheduler insert — and nothing else:

* **What is counted where.**  The only thing a send writes is its link's
  :class:`LinkStats` row (messages, bytes), plus ``messages_dropped`` when
  it is dropped.  Everything else is derived when somebody reads it:
  ``messages_sent`` is the sum of the rows' message counts,
  ``bytes_touching`` a scan over the rows with that endpoint,
  ``total_bytes`` their sum.  A row exists only once its link has been
  charged (a dead sender charges nothing, an unused link answers with the
  shared :data:`EMPTY_LINK_STATS`).  ``messages_delivered`` and the
  dead-destination drop are counted at delivery.
* **Routes are fixed once built.**  Per-(src, dst) *routes* —
  ``[src_node, dst_node, stats, base_delay]``, the delay jitter-free and
  computed with the exact arithmetic of ``Topology.one_way`` — are cached
  here, by each sending node (``Node._fused_routes``) and inside the
  Cassandra coordinators' fan-out plans, and nothing ever drops them: the
  :class:`~repro.sim.topology.Topology` is fixed at construction and the
  jitter bound is read from it once.  What changes mid-run is a fault —
  :meth:`Network.degrade_link`, a partition, a node's slowdown — and each
  is checked on every hop, outside the route.  Registering a node
  invalidates nothing: no existing route can mention it.
* Partition and degradation checks cost one truthiness test each while no
  fault is installed (no ``frozenset`` allocation).

There is one send path, :meth:`Network.fused_send_to`: it accounts the hop
and schedules a pre-bound continuation at the delivery instant.  Every
request path carries its own per-operation state and calls it directly
(Cassandra: one pooled record per operation; ZooKeeper: one ``ZkOp`` per
operation and the leader's shared ``Transaction``; 2PC: one ``TxnOp`` per
transaction), and its continuation does the delivery-side accounting
(``messages_delivered`` and the dead-destination drop); the sender learns
from the return value whether anything was scheduled at all; control-plane
hops share one such step, ``Node._receive_control``.  :meth:`Network.send`
is ``fused_send_to`` plus a :class:`Message` and its ``on_<kind>``
dispatch: Cassandra's read repair, nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappush
from typing import Any, Dict, Optional, Tuple, TYPE_CHECKING

from repro.sim.scheduler import Scheduler
from repro.sim.topology import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.node import Node

#: Fixed per-message framing overhead (TCP/IP + RPC headers), in bytes.
MESSAGE_HEADER_BYTES = 50
#: Size of a key on the wire (bytes): a Cassandra row key, a 2PC write's key.
KEY_SIZE_BYTES = 20

def estimate_payload_size(payload: Any) -> int:
    """Rough byte size of a message payload.

    The simulator does not serialize payloads; this helper estimates sizes so
    bandwidth figures have realistic proportions (a ZooKeeper snapshot, a
    :class:`Message` sent without ``size_bytes``).  Callers that know the
    true wire size (e.g. a 100 B YCSB value) pass it explicitly instead.
    Traversal is iterative (no recursion limit on deeply nested payloads)
    and sums are order-independent, so the result matches the original
    recursive definition exactly.
    """
    total = 0
    stack = [payload]
    pop = stack.pop
    while stack:
        item = pop()
        if item is None:
            continue
        tp = type(item)
        if tp is str:
            total += (len(item) if item.isascii()
                      else len(item.encode("utf-8")))
        elif tp is bool:
            total += 1
        elif tp is int or tp is float:
            total += 8
        elif tp is bytes:
            total += len(item)
        elif tp is dict:
            for key, value in item.items():
                stack.append(key)
                stack.append(value)
        elif tp is list or tp is tuple or tp is set or tp is frozenset:
            stack.extend(item)
        else:  # any other type, subclasses of the above included
            total += 32
    return total


class Message:
    """A network message between two named nodes."""

    __slots__ = ("src", "dst", "kind", "payload", "size_bytes", "send_time")

    def __init__(self, src: str, dst: str, kind: str,
                 payload: Optional[Dict[str, Any]] = None,
                 size_bytes: Optional[int] = 0,
                 send_time: float = 0.0) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = {} if payload is None else payload
        self.send_time = send_time
        if size_bytes is None or size_bytes <= 0:
            size_bytes = MESSAGE_HEADER_BYTES + estimate_payload_size(
                self.payload)
        self.size_bytes = size_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Message(src={self.src!r}, dst={self.dst!r}, "
                f"kind={self.kind!r}, size_bytes={self.size_bytes})")


_new_message = Message.__new__

@dataclass
class LinkStats:
    """Accumulated traffic statistics for one directed link."""

    messages: int = 0
    bytes: int = 0


class _FrozenLinkStats(LinkStats):
    """The shared all-zero stats returned for links that never carried
    traffic.  Immutable, so callers cannot corrupt one another's view by
    mutating what used to be a per-call throwaway instance."""

    def __init__(self) -> None:
        object.__setattr__(self, "messages", 0)
        object.__setattr__(self, "bytes", 0)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(
            "this LinkStats is the shared zero for unused links; "
            "it cannot be mutated")


#: Returned by :meth:`Network.link_stats` for links with no recorded traffic.
EMPTY_LINK_STATS = _FrozenLinkStats()


class Network:
    """Delivers messages between registered nodes with WAN latencies."""

    __slots__ = ("scheduler", "topology", "_clock", "_rand",
                 "_jitter_fraction", "_nodes", "_links",
                 "_partitioned", "_partitioned_regions", "_link_extra_ms",
                 "_routes", "_messages_built",
                 "messages_delivered", "messages_dropped")

    def __init__(self, scheduler: Scheduler, topology: Topology) -> None:
        self.scheduler = scheduler
        self._clock = scheduler.clock
        self.topology = topology
        self._nodes: Dict[str, "Node"] = {}
        #: One row per directed link that has carried traffic: the only
        #: accounting a send writes (see the module docstring).
        self._links: Dict[Tuple[str, str], LinkStats] = {}
        self._partitioned: set = set()
        self._partitioned_regions: set = set()
        #: Extra one-way latency (ms) per node pair or region pair; region
        #: keys use the ``"region:<name>"`` form so the two namespaces never
        #: collide with node names.
        self._link_extra_ms: Dict[frozenset, float] = {}
        #: (src, dst) -> [src_node, dst_node, LinkStats | None, base_delay].
        #: Stats are filled in on first charge so dead-sender traffic never
        #: materializes a link entry.
        self._routes: Dict[Tuple[str, str], list] = {}
        self._messages_built = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self._rand = topology._rng.random
        self._jitter_fraction = topology.jitter_fraction

    # -- membership ------------------------------------------------------
    def register(self, node: "Node") -> None:
        """Register a node; its name must be unique within the network."""
        if node.name in self._nodes:
            raise ValueError(f"node name already registered: {node.name}")
        self._nodes[node.name] = node

    def node(self, name: str) -> "Node":
        return self._nodes[name]

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    # -- fault injection ---------------------------------------------------
    def partition(self, name_a: str, name_b: str) -> None:
        """Drop all future messages between two nodes (both directions)."""
        self._partitioned.add(frozenset({name_a, name_b}))

    def heal(self, name_a: str, name_b: str) -> None:
        """Remove a partition previously installed by :meth:`partition`."""
        self._partitioned.discard(frozenset({name_a, name_b}))
        for node in self._nodes.values():
            node.reconnected()

    def partition_regions(self, region_a: str, region_b: str) -> None:
        """Drop all future messages between two regions (both directions).

        A WAN partition: every node in ``region_a`` loses connectivity to
        every node in ``region_b``, regardless of when nodes join.
        """
        self._partitioned_regions.add(frozenset({region_a, region_b}))

    def heal_regions(self, region_a: str, region_b: str) -> None:
        """Remove a region partition installed by :meth:`partition_regions`."""
        self._partitioned_regions.discard(frozenset({region_a, region_b}))
        for node in self._nodes.values():
            node.reconnected()

    def is_partitioned(self, name_a: str, name_b: str) -> bool:
        if self._partitioned \
                and frozenset({name_a, name_b}) in self._partitioned:
            return True
        if self._partitioned_regions:
            node_a = self._nodes.get(name_a)
            node_b = self._nodes.get(name_b)
            if node_a is not None and node_b is not None:
                key = frozenset({node_a.region, node_b.region})
                if key in self._partitioned_regions:
                    return True
        return False

    def degrade_link(self, endpoint_a: str, endpoint_b: str,
                     extra_ms: float) -> None:
        """Add one-way latency between two nodes (or two ``region:<r>`` keys)."""
        if type(extra_ms) is bool or not 0 <= extra_ms < math.inf:
            raise ValueError(
                f"extra latency must be non-negative and finite, "
                f"got {extra_ms!r}")
        self._link_extra_ms[frozenset({endpoint_a, endpoint_b})] = extra_ms

    def restore_link(self, endpoint_a: str, endpoint_b: str) -> None:
        """Remove a degradation installed by :meth:`degrade_link`."""
        self._link_extra_ms.pop(frozenset({endpoint_a, endpoint_b}), None)

    def link_extra_ms(self, src: str, dst: str) -> float:
        """Total injected one-way latency currently applied to src→dst."""
        if not self._link_extra_ms:
            return 0.0
        extra = self._link_extra_ms.get(frozenset({src, dst}), 0.0)
        src_node = self._nodes.get(src)
        dst_node = self._nodes.get(dst)
        if src_node is not None and dst_node is not None:
            extra += self._link_extra_ms.get(
                frozenset({f"region:{src_node.region}",
                           f"region:{dst_node.region}"}), 0.0)
        return extra

    # -- traffic -----------------------------------------------------------
    def _route(self, src: str, dst: str) -> list:
        """Build and cache the route entry for one (src, dst) pair.

        The jitter-free base delay is precomputed with exactly the
        arithmetic of :meth:`Topology.one_way` (loopback or RTT halved);
        stats start as ``None`` and are created on first charge.
        """
        nodes = self._nodes
        src_node = nodes.get(src)
        if src_node is None:
            raise KeyError(f"unknown source node: {src}")
        dst_node = nodes.get(dst)
        if dst_node is None:
            raise KeyError(f"unknown destination node: {dst}")
        topology = self.topology
        src_host = src_node.host
        same_host = (src_host is not None
                     and src_host == dst_node.host) or src == dst
        if same_host:
            base = topology.loopback_rtt_ms / 2.0
        else:
            base = topology.rtt(src_node.region, dst_node.region) / 2.0
        route = self._routes[(src, dst)] = [
            src_node, dst_node, self._links.get((src, dst)), base]
        return route

    def send(self, src: str, dst: str, kind: str,
             payload: Optional[Dict[str, Any]] = None,
             size_bytes: Optional[int] = None) -> Message:
        """Send a message; returns the :class:`Message` (already accounted).

        The hop is :meth:`fused_send_to`'s, so the message is charged to the
        link even if the destination is down or partitioned away — bytes
        leave the sender's NIC regardless — and a *dead sender* sends
        nothing at all: work still queued on a crashed node must not leak
        protocol messages (or bytes) out of it.
        """
        if payload is None:
            payload = {}
        if size_bytes is None or size_bytes <= 0:
            size_bytes = MESSAGE_HEADER_BYTES + estimate_payload_size(payload)
        # Message(...), inlined: the constructor call would be a second
        # network-layer frame per send.
        message = _new_message(Message)
        message.src = src
        message.dst = dst
        message.kind = kind
        message.payload = payload
        message.size_bytes = size_bytes
        message.send_time = self._clock._now
        self._messages_built += 1
        self.fused_send_to(self._nodes[src], dst, size_bytes, self._deliver,
                           (message,))
        return message

    def _deliver(self, message: Message) -> None:
        # Nodes are never unregistered mid-run — they crash, which flips
        # ``alive``.
        node = self._nodes[message.dst]
        if node.alive:
            self.messages_delivered += 1
            # Dispatch through the node's handler cache directly;
            # handle_message fills the cache on the first message of a kind
            # (and raises for unknown kinds).
            handler = node._handler_cache.get(message.kind)
            if handler is not None:
                handler(message)
            else:
                node.handle_message(message)
        else:
            self.messages_dropped += 1

    def pool_stats(self) -> Dict[str, int]:
        """``created`` is the number of :class:`Message` objects built.

        Messages are no longer pooled, so ``reused``, ``recycled`` and
        ``free`` are always 0; the four keys stay for the callers that
        audit them.
        """
        return {"created": self._messages_built, "reused": 0,
                "recycled": 0, "free": 0}

    def fused_route(self, src: str, dst: str) -> list:
        """The cached route entry for src→dst, for fused protocol senders.

        Callers may hold the returned list for the network's lifetime (the
        list is the one :meth:`fused_send_to` charges, so every sender on a
        link shares its stats row).
        """
        route = self._routes.get((src, dst))
        if route is None:
            route = self._route(src, dst)
        return route

    def fused_send_to(self, src: Any, dst: str, size_bytes: int,
                      fn: Any, args: tuple) -> bool:
        """Account one send and schedule ``fn(*args)`` at its delivery.

        ``src`` is the sending *node* object (its per-destination route
        cache is probed here), ``dst`` the destination name.  The
        continuation owns the delivery-side bookkeeping (:meth:`_deliver`
        does it for messages): bump ``messages_delivered`` when the
        destination is alive, ``messages_dropped`` when it is not.
        Returns ``False`` when the send was dropped (nothing scheduled).

        Every hop in the simulator runs through here: the sender-side drop
        rules, the link/byte charge, the jitter draw (``uniform(0, jf)`` is
        exactly ``jf * random()``, so the sample equals
        ``Topology.one_way``'s) and the scheduler insert, inlined.
        """
        route = src._fused_routes.get(dst)
        if route is None:
            route = self._routes.get((src.name, dst))
            if route is None:
                route = self._route(src.name, dst)
            src._fused_routes[dst] = route
        src_node, dst_node, stats, base = route
        if not src_node.alive:
            self.messages_dropped += 1
            return False
        if stats is None:
            stats = route[2] = self._links[(src_node.name, dst)] = LinkStats()
        stats.messages += 1
        stats.bytes += size_bytes
        if self._partitioned or self._partitioned_regions:
            if self.is_partitioned(src_node.name, dst_node.name):
                self.messages_dropped += 1
                return False
        if not dst_node.alive:
            self.messages_dropped += 1
            return False
        jitter_fraction = self._jitter_fraction
        if jitter_fraction > 0:
            delay = base + jitter_fraction * self._rand() * base
        else:
            delay = base
        if self._link_extra_ms:
            delay += self.link_extra_ms(src_node.name, dst_node.name)
        # Scheduler insert, inlined (delay is >= 0 by construction).
        scheduler = self.scheduler
        seq = scheduler._seq
        scheduler._seq = seq + 1
        heappush(scheduler._heap,
                 (scheduler.clock._now + delay, seq, fn, args, None))
        return True

    # -- accounting --------------------------------------------------------
    @property
    def messages_sent(self) -> int:
        """Messages charged to a link — everything a live sender sent,
        delivered or not."""
        return sum(stats.messages for stats in self._links.values())

    def link_stats(self, src: str, dst: str) -> LinkStats:
        """Traffic on the directed link src→dst.

        Links that never carried traffic share one immutable zero instance
        (:data:`EMPTY_LINK_STATS`); callers must treat the result as
        read-only.
        """
        return self._links.get((src, dst), EMPTY_LINK_STATS)

    def bytes_between(self, name_a: str, name_b: str) -> int:
        """Total bytes exchanged between two nodes, both directions."""
        return (self.link_stats(name_a, name_b).bytes
                + self.link_stats(name_b, name_a).bytes)

    def bytes_touching(self, name: str) -> int:
        """Total bytes on every link where ``name`` is an endpoint."""
        return sum(stats.bytes for link, stats in self._links.items()
                   if name in link)

    def total_bytes(self) -> int:
        return sum(stats.bytes for stats in self._links.values())
