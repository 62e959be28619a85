"""Consistent-hashing ring partitioner with live membership changes.

Maps every key to an ordered preference list of ``replication_factor``
replicas.  With the paper's setup (3 nodes, RF = 3) every node owns every
key, but the ring is implemented faithfully so clusters larger than the
replication factor behave correctly too.

The ring is a *mutable, versioned* object: a change is planned
(:meth:`RingPartitioner.plan_join`,
:meth:`~RingPartitioner.plan_decommission`,
:meth:`~RingPartitioner.plan_remove`), put in flight with
:meth:`~RingPartitioner.begin` and applied with
:meth:`~RingPartitioner.commit`, which edits the token layout and bumps
:attr:`~RingPartitioner.version` (the ring *epoch*).  Each epoch carries a
slot table — one interned preference tuple per ring position — so an
uncached lookup is one md5, one bisect and one index, and every key of a
slot shares the same tuple object.
Every plan is a deterministic :class:`RingChange` whose
:class:`StreamTask` list says exactly which key ranges move between which
nodes, so a joining/leaving node transfers precisely the ranges it
gains/loses while the rest of the cluster keeps serving.

Determinism contract: the token layout is a pure function of the node names
and their vnode counts (``md5(f"{name}#{vnode}")``) — independent of join
order, seeds, or wall clock — so the same membership history always yields
the same ring, the same preference lists, and the same streaming plans.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

# CPython's built-in md5: the same digests as hashlib's OpenSSL-backed
# constructor at half its per-call cost, which is all a 5-20 byte key pays
# for (measured: 0.20 s -> 0.10 s per 400k keys).
from _md5 import MD5Type, md5


def _hash_token(value: str) -> int:
    return int.from_bytes(md5(value.encode("utf-8")).digest()[:8], "big")


def key_token(key: str) -> int:
    """Position of ``key`` on the token ring (public for range checks)."""
    return _hash_token(key)


def key_tokens(keys: Iterable[str]) -> "array[int]":
    """:func:`key_token` of every key, as an unsigned 64-bit column.

    The bulk-load spelling: each digest read as two unsigned 64-bit words,
    the leading one kept, not an int built per key — a cache-sized chunk at
    a time, so a million digests (or keys) are never alive at once.
    """
    tokens, keys = array("Q"), iter(keys)
    while chunk := list(islice(keys, 8192)):
        tokens.extend(array("Q", b"".join(map(MD5Type.digest, map(
            md5, map(str.encode, chunk)))))[::2])
    if sys.byteorder == "little":  # tokens are big-endian digest prefixes
        tokens.byteswap()
    return tokens


def node_tokens(name: str, vnodes: int) -> List[int]:
    """The vnode tokens a node owns — a pure function of name and count."""
    return [_hash_token(f"{name}#{vnode}") for vnode in range(vnodes)]


def token_in_range(token: int, start: int, end: int) -> bool:
    """Whether ``token`` falls in the half-open ring range ``[start, end)``.

    Ranges wrap: when ``start >= end`` the range covers the ring seam
    (``token >= start or token < end``).
    """
    if start < end:
        return start <= token < end
    return token >= start or token < end


@dataclass(frozen=True)
class StreamTask:
    """One key range that must move from ``source`` to ``target``.

    The range is half-open ``[start_token, end_token)`` on the ring (wrapping
    when ``start_token >= end_token``); a key belongs to the task iff
    :func:`token_in_range` holds for its token.
    """

    source: str
    target: str
    start_token: int
    end_token: int


@dataclass(frozen=True)
class RingChange:
    """A planned membership edit plus its deterministic streaming plan.

    ``kind`` is ``"join"``, ``"decommission"`` (graceful: the leaving node
    streams its ranges out) or ``"remove"`` (forced: a dead node's ranges are
    re-replicated from the surviving owners).  ``base_version`` is the ring
    epoch the plan was computed against; committing it produces
    ``base_version + 1``.
    """

    kind: str
    node: str
    vnodes: int
    base_version: int
    tasks: Tuple[StreamTask, ...]

    def total_ranges(self) -> int:
        return len(self.tasks)


class RingPartitioner:
    """Consistent hashing with virtual nodes and live membership edits."""

    def __init__(self, node_names: Sequence[str], replication_factor: int,
                 vnodes_per_node: int = 8) -> None:
        if not node_names:
            raise ValueError("partitioner needs at least one node")
        if replication_factor <= 0:
            raise ValueError("replication factor must be positive")
        if replication_factor > len(node_names):
            raise ValueError(
                f"replication factor {replication_factor} exceeds cluster "
                f"size {len(node_names)}")
        if vnodes_per_node <= 0:
            raise ValueError("vnodes_per_node must be positive")
        self.node_names = list(node_names)
        self.replication_factor = replication_factor
        self.vnodes_per_node = vnodes_per_node
        #: Ring epoch: bumped by every committed membership change.  Request
        #: coordination stamps messages with it so replicas can reject
        #: operations routed by a stale preference list.
        self.version = 0
        #: Per-node vnode count (heterogeneous counts are allowed on join).
        self._vnodes: Dict[str, int] = {
            name: vnodes_per_node for name in self.node_names}
        self._ring: List[tuple] = self._build_ring(self._vnodes)
        self._tokens = [token for token, _ in self._ring]
        #: Preference tuple per ring position (see :meth:`_slot_owners`).
        self._slots = self._slot_owners(self._ring, replication_factor)
        # key -> its slot's tuple, so the request hot path (several lookups
        # per operation on a small hot key set) skips the md5; dropped on
        # every committed edit, and wholesale when a huge key space fills it.
        self._preference_cache: Dict[str, Tuple[str, ...]] = {}
        #: In-flight membership change (between ``begin`` and ``commit``).
        self._pending: Optional[RingChange] = None
        self._pending_ring: List[tuple] = []
        self._pending_tokens: List[int] = []
        self._pending_slots: List[Tuple[str, ...]] = []
        #: End token and gaining nodes of every interval of the serving
        #: ring merged with the pending one (see :meth:`_layout_after`).
        self._pending_bounds: List[int] = []
        self._pending_gained: List[Tuple[str, ...]] = []

    # -- ring construction --------------------------------------------------
    @staticmethod
    def _build_ring(vnode_counts: Dict[str, int]) -> List[tuple]:
        ring: List[tuple] = []
        for name, vnodes in vnode_counts.items():
            for token in node_tokens(name, vnodes):
                ring.append((token, name))
        ring.sort()
        return ring

    @staticmethod
    def _slot_owners(ring: List[tuple],
                     count: int) -> List[Tuple[str, ...]]:
        """The preference tuple of every ring position, equal tuples shared.

        Entry ``i`` holds the first ``count`` distinct owners clockwise from
        ring position ``i``, so the owners of ``token`` are
        ``slots[bisect_right(tokens, token) % len(ring)]``: the walk is done
        once per position and epoch instead of once per lookup.
        """
        interned: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        slots = []
        for position in range(len(ring)):
            owners: List[str] = []
            probe = position
            while len(owners) < count:
                name = ring[probe][1]
                if name not in owners:
                    owners.append(name)
                probe = (probe + 1) % len(ring)
            preference = tuple(owners)
            slots.append(interned.setdefault(preference, preference))
        return slots

    # -- lookups -------------------------------------------------------------
    def replicas_for(self, key: str) -> Tuple[str, ...]:
        """The ordered preference list of replicas responsible for ``key``.

        Returned as an immutable tuple shared by every key of the same ring
        slot until the next ring edit.
        """
        cached = self._preference_cache.get(key)
        if cached is not None:
            return cached
        replicas = self.replicas_for_token(_hash_token(key))
        if len(self._preference_cache) >= 65536:
            self._preference_cache.clear()
        self._preference_cache[key] = replicas
        return replicas

    def replicas_for_token(self, token: int) -> Tuple[str, ...]:
        """:meth:`replicas_for` for a caller that already hashed the key."""
        slots = self._slots
        return slots[bisect_right(self._tokens, token) % len(slots)]

    def owner_runs(self, tokens: Sequence[int]
                   ) -> Iterator[Tuple[int, int, Tuple[str, ...]]]:
        """Cut a non-decreasing token column at the ring's slot boundaries.

        Yields ``(low, high, owners)`` for every non-empty run
        ``tokens[low:high]`` of one slot, in token order — so a bulk load
        routes a whole run with two bisects instead of one lookup per key,
        and every owner receives its rows in token order.  The run past the
        last ring token wraps to slot 0, like :meth:`replicas_for_token`.
        """
        low = 0
        for boundary, owners in zip(self._tokens, self._slots):
            high = bisect_left(tokens, boundary, low)
            if high > low:
                yield low, high, owners
            low = high
        if low < len(tokens):
            yield low, len(tokens), self._slots[0]

    def primary_for(self, key: str) -> str:
        """The first replica in the preference list for ``key``."""
        return self.replicas_for(key)[0]

    def is_replica(self, node_name: str, key: str) -> bool:
        return node_name in self.replicas_for(key)

    def pending_replicas_for(self, key: str) -> Tuple[str, ...]:
        """Nodes that will *gain* ``key`` once the in-flight change commits.

        Empty outside a membership change.  Coordinators forward writes to
        these nodes (without counting them towards the write quorum) so a
        joining or gaining node misses no write issued while its ranges
        stream — the invariant behind zero lost acknowledged writes.
        """
        if self._pending is None:
            return ()
        gained = self._pending_gained
        return gained[bisect_right(self._pending_bounds, _hash_token(key))
                      % len(gained)]

    # -- planning ------------------------------------------------------------
    def _layout_after(self, kind: str, node: str, vnodes: int):
        """The ring once ``node`` has joined/left, and how ownership moves.

        Returns ``(ring, tokens, slots, intervals)``; ``intervals`` holds
        ``(start, end, owners, new_owners)`` per merged ring interval.  Its
        boundaries are the union of the serving ring's tokens and the new
        ones, so every ``[start, end)`` lies inside one elementary interval
        of both rings and its start token is a faithful representative for
        ownership lookups.
        """
        after = dict(self._vnodes)
        if kind == "join":
            after[node] = vnodes
        else:
            del after[node]
        ring = self._build_ring(after)
        tokens = [token for token, _ in ring]
        slots = self._slot_owners(ring, self.replication_factor)
        boundaries = sorted(set(self._tokens) | set(tokens))
        intervals = []
        for index, end in enumerate(boundaries):
            start = boundaries[index - 1]
            intervals.append(
                (start, end, self.replicas_for_token(start),
                 slots[bisect_right(tokens, start) % len(slots)]))
        return ring, tokens, slots, intervals

    def _plan(self, kind: str, node: str, vnodes: int) -> RingChange:
        tasks: List[StreamTask] = []
        for start, end, old_owners, new_owners in self._layout_after(
                kind, node, vnodes)[3]:
            for gainer in new_owners:
                if gainer in old_owners:
                    continue
                if kind == "join":
                    source = old_owners[0]
                elif kind == "decommission":
                    # The leaving node owns the range (ownership only changes
                    # on intervals whose walk passed its tokens) and streams
                    # it out itself.
                    source = node
                else:  # forced remove: the dead node cannot stream
                    survivors = [n for n in old_owners if n != node]
                    if not survivors:  # RF=1 forced removal: range is lost
                        continue
                    source = survivors[0]
                tasks.append(StreamTask(source=source, target=gainer,
                                        start_token=start, end_token=end))
        return RingChange(kind=kind, node=node, vnodes=vnodes,
                          base_version=self.version, tasks=tuple(tasks))

    def plan_join(self, name: str,
                  vnodes: Optional[int] = None) -> RingChange:
        """Plan adding ``name``: which ranges it gains, and from whom."""
        if name in self._vnodes:
            raise ValueError(f"node {name!r} is already in the ring")
        if self._pending is not None:
            raise RuntimeError("a membership change is already in flight")
        vnodes = self.vnodes_per_node if vnodes is None else vnodes
        if vnodes <= 0:
            raise ValueError("vnodes must be positive")
        return self._plan("join", name, vnodes)

    def _plan_removal(self, kind: str, name: str) -> RingChange:
        if name not in self._vnodes:
            raise ValueError(f"node {name!r} is not in the ring")
        if self._pending is not None:
            raise RuntimeError("a membership change is already in flight")
        if len(self._vnodes) - 1 < self.replication_factor:
            raise ValueError(
                f"removing {name!r} would leave {len(self._vnodes) - 1} "
                f"nodes, fewer than the replication factor "
                f"{self.replication_factor}")
        return self._plan(kind, name, self._vnodes[name])

    def plan_decommission(self, name: str) -> RingChange:
        """Plan a graceful removal: the leaving node streams its ranges."""
        return self._plan_removal("decommission", name)

    def plan_remove(self, name: str) -> RingChange:
        """Plan a forced removal: survivors re-replicate the lost ranges."""
        return self._plan_removal("remove", name)

    # -- two-phase application ------------------------------------------------
    def begin(self, change: RingChange) -> None:
        """Mark ``change`` in flight: pending owners start receiving writes.

        Between ``begin`` and ``commit`` the serving ring is unchanged —
        reads and writes route to the current owners — but
        :meth:`pending_replicas_for` exposes the nodes each key's range is
        moving to, so coordinators can forward writes alongside the
        streaming snapshots.
        """
        if self._pending is not None:
            raise RuntimeError("a membership change is already in flight")
        if change.base_version != self.version:
            raise ValueError(
                f"change was planned against ring version "
                f"{change.base_version}, current is {self.version}")
        (self._pending_ring, self._pending_tokens, self._pending_slots,
         intervals) = self._layout_after(change.kind, change.node,
                                         change.vnodes)
        self._pending = change
        self._pending_bounds = [end for _, end, _, _ in intervals]
        self._pending_gained = [
            tuple(name for name in future if name not in current)
            for _, _, current, future in intervals]

    def commit(self, change: RingChange) -> None:
        """Apply an in-flight change: the pending ring serves a new epoch."""
        if self._pending is not change:
            raise RuntimeError("commit does not match the in-flight change")
        if change.kind == "join":
            self._vnodes[change.node] = change.vnodes
            self.node_names.append(change.node)
        else:
            del self._vnodes[change.node]
            self.node_names.remove(change.node)
        self._ring = self._pending_ring
        self._tokens = self._pending_tokens
        self._slots = self._pending_slots
        self.version += 1
        self._preference_cache = {}
        self._clear_pending()

    def abort(self, change: RingChange) -> None:
        """Drop an in-flight change without touching the serving ring."""
        if self._pending is not change:
            raise RuntimeError("abort does not match the in-flight change")
        self._clear_pending()

    def _clear_pending(self) -> None:
        self._pending = None
        self._pending_ring = []
        self._pending_tokens = []
        self._pending_slots = []
        self._pending_bounds = []
        self._pending_gained = []

    # -- introspection ---------------------------------------------------------
    def contains(self, name: str) -> bool:
        return name in self._vnodes

    def token_layout(self) -> Tuple[tuple, ...]:
        """The sorted ``(token, node)`` ring — the determinism fingerprint."""
        return tuple(self._ring)
