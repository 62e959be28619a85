"""Zab-style atomic broadcast bookkeeping.

The leader assigns a monotonically increasing ``zxid`` to every write
transaction, broadcasts a proposal, collects acknowledgements, and commits
once a majority (including itself) has acknowledged.  Every server applies
committed transactions in strict zxid order, which is what gives the
replicated queue its total order.

This module holds the pure data structures; the message handling lives in
:mod:`repro.zookeeper_sim.server`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Set


class Transaction(NamedTuple):
    """A state-mutating operation to be applied through Zab.

    Immutable, and every replica applies the same totally ordered log, so
    the leader builds one record per write and proposals, syncs, snapshots
    and every server's log carry that same object.
    """

    zxid: int
    op: str                      # "create" | "delete" | "dequeue"
    path: str
    data: Any = None
    sequential: bool = False
    #: Server that received the client request (it answers the client).
    origin_server: str = ""
    #: Client-visible request id at the origin server.
    origin_request: int = 0


@dataclass
class _Proposal:
    txn: Transaction
    acks: Set[str] = field(default_factory=set)
    committed: bool = False


class ProposalTracker:
    """Leader-side record of outstanding proposals."""

    def __init__(self, ensemble_size: int, next_zxid: int = 1) -> None:
        if ensemble_size < 1:
            raise ValueError("ensemble must have at least one server")
        self.ensemble_size = ensemble_size
        self.quorum_size = ensemble_size // 2 + 1
        self._next_zxid = next_zxid
        self._proposals: Dict[int, _Proposal] = {}

    def next_zxid(self) -> int:
        zxid = self._next_zxid
        self._next_zxid += 1
        return zxid

    def track(self, txn: Transaction) -> None:
        if txn.zxid in self._proposals:
            raise ValueError(f"zxid {txn.zxid} already tracked")
        self._proposals[txn.zxid] = _Proposal(txn=txn)

    def record_ack(self, zxid: int, server: str) -> bool:
        """Record an ack; returns True when the proposal just reached quorum."""
        proposal = self._proposals.get(zxid)
        if proposal is None or proposal.committed:
            return False
        proposal.acks.add(server)
        if len(proposal.acks) >= self.quorum_size:
            proposal.committed = True
            return True
        return False

    def transaction(self, zxid: int) -> Optional[Transaction]:
        proposal = self._proposals.get(zxid)
        return proposal.txn if proposal is not None else None

    def pending_transactions(self) -> List[Transaction]:
        """Uncommitted proposals in zxid order (for retransmission to a
        follower that joined or re-synced mid-stream)."""
        return [self._proposals[zxid].txn for zxid in sorted(self._proposals)
                if not self._proposals[zxid].committed]

    def pending_count(self) -> int:
        return sum(1 for p in self._proposals.values() if not p.committed)

    def forget(self, zxid: int) -> None:
        self._proposals.pop(zxid, None)


class CommitLog:
    """Per-server buffer applying committed transactions in zxid order."""

    def __init__(self) -> None:
        self._known: Dict[int, Transaction] = {}
        self._committed: Set[int] = set()
        self.last_applied = 0

    def learn(self, txn: Transaction) -> None:
        """Record a proposal's contents (from the leader's proposal message)."""
        self._known[txn.zxid] = txn

    def mark_committed(self, zxid: int) -> None:
        self._committed.add(zxid)

    def commit(self, zxid: int) -> Sequence[Transaction]:
        """:meth:`mark_committed`, then :meth:`ready_transactions`.

        Nearly every commit is for the next zxid, its proposal already
        learned and nothing waiting behind it; that case touches neither
        the committed set nor a list.
        """
        if zxid == self.last_applied + 1 and not self._committed:
            txn = self._known.pop(zxid, None)
            if txn is not None:
                self.last_applied = zxid
                return (txn,)
        self._committed.add(zxid)
        return self.ready_transactions()

    def ready_transactions(self) -> List[Transaction]:
        """Pop every transaction that can now be applied, in zxid order."""
        ready: List[Transaction] = []
        while True:
            next_zxid = self.last_applied + 1
            if next_zxid in self._committed and next_zxid in self._known:
                ready.append(self._known.pop(next_zxid))
                self._committed.discard(next_zxid)
                self.last_applied = next_zxid
            else:
                break
        return ready

    def uncommitted_transactions(self) -> List[Transaction]:
        """Learned-but-unapplied transactions beyond ``last_applied``, in order.

        These are the proposals a new leader re-proposes under its own epoch
        (with fresh zxids) so the zxid sequence stays gapless.
        """
        return [self._known[zxid] for zxid in sorted(self._known)
                if zxid > self.last_applied]

    def has_backlog(self) -> bool:
        """Whether entries beyond ``last_applied`` are waiting to apply.

        Also prunes entries at or below ``last_applied`` (possible after a
        sync or snapshot advanced ``last_applied`` past learned proposals).
        """
        self._known = {z: t for z, t in self._known.items()
                       if z > self.last_applied}
        self._committed = {z for z in self._committed
                           if z > self.last_applied}
        return bool(self._known or self._committed)

    def discard_uncommitted(self) -> int:
        """Drop every entry beyond ``last_applied``; returns how many.

        Called when a new leader takes over: proposals of the dead epoch that
        never reached this server as applicable transactions are abandoned
        (the origin's client will time out and retry through the new leader).
        """
        stale = [z for z in self._known if z > self.last_applied]
        for zxid in stale:
            del self._known[zxid]
        dropped_commits = [z for z in self._committed if z > self.last_applied]
        for zxid in dropped_commits:
            self._committed.discard(zxid)
        return len(set(stale) | set(dropped_commits))
