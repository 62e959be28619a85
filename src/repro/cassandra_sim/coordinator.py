"""Coordinator-side sessions for quorum reads and writes.

In Cassandra every replica can act as a coordinator for client requests.
These session objects track one in-flight client operation at its
coordinator: which replicas still owe a response, whether a preliminary view
was already flushed (Correctable Cassandra), and what to send back to the
client when the quorum completes.

:class:`FusedRead` and :class:`FusedWrite` are the fused-fast-path
equivalents: one pooled record carries an operation through client,
coordinator and replicas (no per-hop payload dicts, no client pending map,
no coordinator session map).  They are plain slotted objects recycled
through class-level free lists; the protocol code in ``replica.py`` /
``client.py`` owns all state transitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.cassandra_sim.versions import VersionedValue, resolve


@dataclass(slots=True)
class ReadSession:
    """One client read being coordinated."""

    session_id: int
    req_id: int
    client: str
    key: str
    r: int
    icg: bool
    started_at: float
    #: Replica name -> version it reported (None when the replica had no row).
    responses: Dict[str, Optional[VersionedValue]] = field(default_factory=dict)
    #: Value sent in the preliminary response (None until flushed).
    preliminary: Optional[VersionedValue] = None
    preliminary_sent: bool = False
    final_sent: bool = False
    #: Replicas the coordinator asked for data (including itself when local).
    contacted: List[str] = field(default_factory=list)
    #: Timeout handling: retries performed so far and the pending timeout
    #: event (a :class:`repro.sim.scheduler.Event`, cancellable).
    attempts: int = 0
    timeout_event: Optional[Any] = None

    def record(self, replica: str, version: Optional[VersionedValue]) -> None:
        self.responses[replica] = version

    def have_quorum(self) -> bool:
        return len(self.responses) >= self.r

    def resolved(self) -> Optional[VersionedValue]:
        """Newest version among the responses received so far (LWW)."""
        return resolve(self.responses.values())

    def stale_replicas(self) -> List[str]:
        """Replicas whose reported version is older than the resolved one."""
        newest = self.resolved()
        if newest is None:
            return []
        stale = []
        for replica, version in self.responses.items():
            if version is None or version.timestamp < newest.timestamp:
                stale.append(replica)
        return stale


@dataclass(slots=True)
class WriteSession:
    """One client write being coordinated."""

    session_id: int
    req_id: int
    client: str
    key: str
    w: int
    version: VersionedValue
    started_at: float
    acks: List[str] = field(default_factory=list)
    acked_client: bool = False
    attempts: int = 0
    timeout_event: Optional[Any] = None

    def record_ack(self, replica: str) -> None:
        if replica not in self.acks:
            self.acks.append(replica)

    def have_quorum(self) -> bool:
        return len(self.acks) >= self.w


class FusedRead:
    """One fused read operation: client + coordinator state in one record.

    Pooled: acquired at issue, released exactly once when the last
    continuation holding it runs (final response at the client, or a late
    preliminary that outlived the final).  ``recyclable`` is cleared by the
    rare rescue paths (stale ring epoch) so a record with untracked
    references is simply dropped instead of recycled.
    """

    __slots__ = ("client", "coordinator", "key", "r", "icg", "sent_at",
                 "sink", "count", "best", "local", "local_version",
                 "preliminary", "preliminary_sent",
                 "final_sent", "prelim_seen", "prelim_value", "final_done",
                 "flush_pending", "contacted", "recyclable", "args")

    _pool: List["FusedRead"] = []
    created = 0
    reused = 0
    recycled = 0

    def __init__(self) -> None:
        self.contacted: List[str] = []
        #: The one-element args tuple every hop passes to the scheduler;
        #: built once per record, shared across its pooled lifetimes.
        self.args = (self,)

    @classmethod
    def acquire(cls) -> "FusedRead":
        pool = cls._pool
        if pool:
            rec = pool.pop()
            cls.reused += 1
        else:
            rec = cls()
            cls.created += 1
        rec.count = 0
        rec.best = None
        rec.local = False
        rec.local_version = None
        rec.preliminary = None
        rec.preliminary_sent = False
        rec.final_sent = False
        rec.prelim_seen = False
        rec.prelim_value = None
        rec.final_done = False
        rec.flush_pending = False
        rec.recyclable = True
        return rec

    @classmethod
    def release(cls, rec: "FusedRead") -> None:
        if not rec.recyclable:
            return
        # Only ``contacted`` must be scrubbed (the list is reused);
        # ``acquire`` resets every protocol field, so the remaining
        # references just sit in the bounded pool until reuse.
        rec.contacted.clear()
        if len(cls._pool) < 4096:
            cls.recycled += 1
            cls._pool.append(rec)

    @classmethod
    def pool_stats(cls) -> Dict[str, int]:
        return {"created": cls.created, "reused": cls.reused,
                "recycled": cls.recycled, "free": len(cls._pool)}


class FusedWrite:
    """One fused write operation (see :class:`FusedRead`).

    Quorum state is counter-based on the happy path: ``ack_count`` drives
    every quorum/release comparison, and the ``acks`` name list exists only
    for the stale-epoch rescue paths (which must know *which* replicas
    already acknowledged before re-sending).  The two are kept in lockstep.
    """

    __slots__ = ("client", "coordinator", "key", "value", "version", "w",
                 "sent_at", "sink", "acks", "ack_count", "acks_expected",
                 "acked_client", "client_done", "recyclable", "args")

    _pool: List["FusedWrite"] = []
    created = 0
    reused = 0
    recycled = 0

    def __init__(self) -> None:
        self.acks: List[str] = []
        #: See :attr:`FusedRead.args`.
        self.args = (self,)

    @classmethod
    def acquire(cls) -> "FusedWrite":
        pool = cls._pool
        if pool:
            rec = pool.pop()
            cls.reused += 1
        else:
            rec = cls()
            cls.created += 1
        rec.ack_count = 0
        rec.acks_expected = 0
        rec.acked_client = False
        rec.client_done = False
        rec.recyclable = True
        return rec

    @classmethod
    def release(cls, rec: "FusedWrite") -> None:
        if not rec.recyclable:
            return
        # Only ``acks`` must be scrubbed (the list is reused); ``acquire``
        # resets every protocol field on the way back out of the pool.
        rec.acks.clear()
        if len(cls._pool) < 4096:
            cls.recycled += 1
            cls._pool.append(rec)

    @classmethod
    def pool_stats(cls) -> Dict[str, int]:
        return {"created": cls.created, "reused": cls.reused,
                "recycled": cls.recycled, "free": len(cls._pool)}
