"""Pooled per-operation records for quorum reads and writes.

In Cassandra every replica can act as a coordinator for client requests.
One record tracks one attempt at a client operation everywhere it goes: what
the client needs to complete it (sink, issue time, failover state), and what
its coordinator needs (which replicas answered, whether a preliminary view
was already flushed for Correctable Cassandra, the quorum timer).  No
per-hop payload dicts, no client pending map, no coordinator session map.

:class:`FusedRead` and :class:`FusedWrite` are plain slotted objects
recycled through class-level free lists; the protocol code (``reads.py``,
``writes.py``, ``replica.py``, ``client.py``) owns all state transitions.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cassandra_sim.storage import VersionedValue


class _PooledRecord:
    """Free-list plumbing shared by the two record classes.

    One rule decides a record's lifetime.  ``refs`` counts everything that
    still points at it: each network hop, queue job and timer carrying it
    (counted when scheduled — a send that was dropped at the sender never
    counts — and un-counted when it runs or is dropped at delivery), the
    client's open operation (until its sink is completed) and, on the
    operation's first record, each failover attempt made for it.  Whoever
    takes the count to zero retires the record, exactly once.  An operation
    that can never complete (its coordinator crashed and no timeout is
    armed) keeps its count above zero and its record out of the pool.
    """

    __slots__ = ()

    @classmethod
    def pool_stats(cls) -> Dict[str, int]:
        created, reused, recycled = cls._counts
        return {"created": created, "reused": reused,
                "recycled": recycled, "free": len(cls._pool)}

    def unref(self) -> None:
        """Drop one reference; retire the record when it was the last."""
        refs = self.refs = self.refs - 1
        if not refs:
            self.release()


class FusedRead(_PooledRecord):
    """One attempt at a read: client and coordinator state in one record.

    The first record of an operation also *is* the operation (``op is
    self``): it holds the sink, the issue time, the failover count and the
    client timer.  A failover re-sends the request as a fresh record whose
    ``op`` points back at the first, so an attempt the client gave up on can
    still answer — into the operation, if it is still open — and never
    touches a sink the issuer has reused.
    """

    __slots__ = ("client", "coordinator", "key", "r", "icg", "op",
                 # the operation (meaningful on ``op`` only)
                 "sink", "sent_at", "done", "attempts", "timer",
                 # this attempt, at its coordinator
                 "incarnation", "count", "best", "local", "local_version",
                 "preliminary", "preliminary_sent", "final_sent", "degraded",
                 "contacted", "responses", "solicits", "quorum_timer",
                 "refs", "args")

    _pool: List["FusedRead"] = []
    #: ``[created, reused, recycled]`` — in a list, not class attributes:
    #: assigning a class attribute invalidates the interpreter's attribute
    #: caches for the type, and these move with every operation.
    _counts = [0, 0, 0]

    def __init__(self) -> None:
        self.contacted: List[str] = []
        #: Replica name -> version it reported; filled only when the
        #: coordinator needs names (read repair, timeout re-solicits).
        self.responses: Dict[str, Optional[VersionedValue]] = {}
        # Timers are cleared by whoever fires or cancels them, so they are
        # ``None`` whenever a record sits in the pool.
        self.timer = self.quorum_timer = None
        #: The one-element args tuple every hop passes to the scheduler;
        #: built once per record, shared across its pooled lifetimes.
        self.args = (self,)

    @classmethod
    def acquire(cls) -> "FusedRead":
        pool = cls._pool
        if pool:
            rec = pool.pop()
            cls._counts[1] += 1
        else:
            rec = cls()
            cls._counts[0] += 1
        rec.done = False
        rec.attempts = 0
        rec.count = 0
        rec.best = None
        # ``local_version`` / ``preliminary`` are only read once ``local`` /
        # ``preliminary_sent`` say they were written.
        rec.local = False
        rec.preliminary_sent = False
        rec.final_sent = False
        rec.degraded = False
        rec.solicits = 0
        return rec

    def release(self) -> None:
        """Retire the record (its count reached zero)."""
        # Only the containers must be scrubbed (they are reused);
        # ``acquire`` resets every protocol field, so the remaining
        # references just sit in the bounded pool until reuse.
        self.contacted.clear()
        if self.responses:
            self.responses.clear()
        FusedRead._counts[2] += 1
        pool = FusedRead._pool
        if len(pool) < 4096:
            pool.append(self)
        client = self.client
        client._reads_retired += 1
        op = self.op
        if op is not self:
            client._resends_retired += 1
            op.unref()


class FusedWrite(_PooledRecord):
    """One attempt at a write (see :class:`FusedRead`).

    ``ack_count`` drives the quorum comparison; ``acks`` names the replicas
    behind it, so a duplicate ack (a timeout re-send answered twice) is not
    counted twice and re-sends skip replicas that already answered.
    """

    __slots__ = ("client", "coordinator", "key", "value", "value_bytes",
                 "version", "w", "op",
                 # the operation (meaningful on ``op`` only)
                 "sink", "sent_at", "done", "attempts", "timer",
                 # this attempt, at its coordinator
                 "incarnation", "acks", "ack_count", "acked_client",
                 "degraded", "closed", "solicits", "quorum_timer",
                 "refs", "args")

    _pool: List["FusedWrite"] = []
    #: ``[created, reused, recycled]`` — in a list, not class attributes:
    #: assigning a class attribute invalidates the interpreter's attribute
    #: caches for the type, and these move with every operation.
    _counts = [0, 0, 0]

    def __init__(self) -> None:
        self.acks: List[str] = []
        self.timer = self.quorum_timer = None
        #: See :attr:`FusedRead.args`.
        self.args = (self,)

    @classmethod
    def acquire(cls) -> "FusedWrite":
        pool = cls._pool
        if pool:
            rec = pool.pop()
            cls._counts[1] += 1
        else:
            rec = cls()
            cls._counts[0] += 1
        rec.done = False
        rec.attempts = 0
        rec.ack_count = 0
        rec.acked_client = False
        rec.degraded = False
        rec.closed = False
        rec.solicits = 0
        return rec

    def release(self) -> None:
        """Retire the record (its count reached zero)."""
        self.acks.clear()
        FusedWrite._counts[2] += 1
        pool = FusedWrite._pool
        if len(pool) < 4096:
            pool.append(self)
        client = self.client
        client._writes_retired += 1
        op = self.op
        if op is not self:
            client._resends_retired += 1
            op.unref()
