"""Zab: atomic broadcast bookkeeping and leader election.

The leader assigns a monotonically increasing ``zxid`` to every write
transaction, broadcasts a proposal, collects acknowledgements, and commits
once a majority (including itself) has acknowledged.  Every server applies
committed transactions in strict zxid order, which is what gives the
replicated queue its total order.  :class:`ProposalTracker` and
:class:`CommitLog` are that bookkeeping; the hops that drive them live in
:mod:`repro.zookeeper_sim.server`.

:class:`Election`, which a server hands itself to at construction, is its
failure detection and leader election (``config.heartbeat_interval_ms >
0`` plus :meth:`Election.enable`).  Followers ping the leader; one that
hears nothing for ``leader_timeout_ms`` announces its candidacy with its
last applied zxid.  After ``election_window_ms`` each elector tallies the
candidacies (a majority of the ensemble is required), and the one with the
highest ``(last_applied, name)`` bumps the epoch and announces itself.  The
election tells its server the outcome through ``promote(epoch)``,
``follow(leader, epoch)`` and ``request_sync(epoch)``.  Its hops go through
:meth:`~repro.sim.node.Node._send_control` to the peer server and run at
the peer's election.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Set

from repro.sim.network import MESSAGE_HEADER_BYTES
from repro.zookeeper_sim.config import ACK_BYTES


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
    """Per-server buffer applying committed transactions in zxid order,
    from ``last_applied`` on (where a snapshot installed left it)."""

    def __init__(self, last_applied: int = 0) -> None:
        self._known: Dict[int, Transaction] = {}
        self._committed: Set[int] = set()
        self.last_applied = last_applied

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

    def discard_uncommitted(self) -> None:
        """Drop every entry beyond ``last_applied``.

        Called when a new leader takes over: proposals of the dead epoch that
        never reached this server as applicable transactions are abandoned
        (the origin's client will time out and retry through the new leader).
        """
        applied = self.last_applied
        self._known = {z: t for z, t in self._known.items() if z <= applied}
        self._committed = {z for z in self._committed if z <= applied}

    def sync_for(self, applied: Sequence[Transaction], last_applied: int,
                 epoch_behind: bool) -> Optional[List[Transaction]]:
        """What a follower at ``last_applied`` misses of this server's
        ``applied`` log, or ``None`` if only a snapshot can reconcile it: it
        slept through an election, or applied zxids this epoch recycled."""
        if epoch_behind or last_applied > self.last_applied:
            return None
        return [txn for txn in applied if txn.zxid > last_applied]


class Election:
    """One server's failure detection and leader election."""

    def __init__(self, server: Any) -> None:
        self._server = server
        self._scheduler = server.scheduler
        self._config = server.config
        self._size = MESSAGE_HEADER_BYTES + ACK_BYTES
        self._enabled = False
        self._last_pong_ms = 0.0
        #: When a stalled backlog last made this server ask for a sync.
        self._resynced_ms = 0.0
        #: Highest epoch this server has announced a candidacy for.
        self.announced_epoch = 0
        #: Election epoch -> candidate name -> last applied zxid.
        self.candidates: Dict[int, Dict[str, int]] = {}
        self.started = 0

    def enable(self) -> None:
        """Start the heartbeat tick (unless ``heartbeat_interval_ms`` is 0)."""
        if self._enabled or self._config.heartbeat_interval_ms <= 0:
            return
        self._enabled = True
        self._last_pong_ms = self._scheduler.now()
        self._scheduler.schedule(self._config.heartbeat_interval_ms,
                                 self._tick)

    def _tick(self) -> None:
        # Kept alive through crashes so a recovered follower resumes
        # monitoring; a crashed server neither sends nor suspects.
        server = self._server
        self._scheduler.schedule(self._config.heartbeat_interval_ms,
                                 self._tick)
        if server.orphan_origins:
            server.expire_orphan_origins()
        if not server.alive or server.is_leader or server.leader_name is None:
            return
        server._send_control(self._size, server.leader_node,
                             server.leader_node.election.ping, server)
        now = self._scheduler.now()
        timeout = self._config.leader_timeout_ms
        if now - self._last_pong_ms > timeout:
            self.start()
        elif server.commit_log.has_backlog() and now - max(
                server.last_progress_ms, self._resynced_ms) > timeout:
            # Nothing applied (nor asked for) for a whole leader timeout,
            # e.g. a proposal lost while switching epochs: ask for a sync.
            self._resynced_ms = now
            server.request_sync(server.epoch)

    def ping(self, follower: Any) -> None:
        server = self._server
        if server.is_leader:
            server._send_control(self._size, follower, follower.election.pong,
                                 server.epoch)
        else:  # deposed, or never led: redirect
            self.send_leader_info(follower)

    def pong(self, epoch: int) -> None:
        if epoch >= self._server.epoch:
            self._last_pong_ms = self._scheduler.now()

    def start(self) -> None:
        """Campaign for the next epoch, as the tick does once the leader
        went quiet (unless already campaigning for it or a newer one)."""
        epoch = self._server.epoch + 1
        if self.announced_epoch < epoch:
            self.started += 1
            self._announce(epoch)

    def _announce(self, epoch: int) -> None:
        server = self._server
        last_applied = server.commit_log.last_applied
        self.announced_epoch = epoch
        self.candidates.setdefault(epoch, {})[server.name] = last_applied
        for peer in server.peers:
            server._send_control(self._size, peer, peer.election.candidacy,
                                 server, epoch, last_applied)
        self._scheduler.schedule(self._config.election_window_ms,
                                 self._conclude, epoch)

    def candidacy(self, candidate: Any, epoch: int, last_applied: int) -> None:
        server = self._server
        if epoch <= server.epoch:
            if server.is_leader:  # a stale suspicion: reassert
                self.send_leader_info(candidate)
            return
        self.candidates.setdefault(epoch, {})[candidate.name] = last_applied
        if self.announced_epoch < epoch and not server.is_leader:
            self._announce(epoch)

    def _conclude(self, epoch: int) -> None:
        server = self._server
        if not server.alive or server.epoch >= epoch:
            return  # crashed meanwhile, or a leader for this epoch emerged
        candidates = self.candidates.get(epoch, {})
        if len(candidates) < len(server.ensemble) // 2 + 1:
            self._abandon(epoch)  # too few electors reachable
            return
        winner = max(candidates.items(), key=lambda kv: (kv[1], kv[0]))[0]
        if winner == server.name:
            server.promote(epoch)
        else:  # give the winner time to announce itself
            self._scheduler.schedule(3 * self._config.election_window_ms,
                                     self._abandon, epoch)

    def _abandon(self, epoch: int) -> None:
        """Drop the round for ``epoch`` unless its leader emerged."""
        server = self._server
        if server.alive and server.epoch < epoch:
            self.candidates.pop(epoch, None)
            self.announced_epoch = server.epoch

    def settled(self, epoch: int) -> None:
        """A leader for ``epoch`` is in place, this server or another: the
        rounds up to it are over, and the leader is trusted from now."""
        self._last_pong_ms = self._scheduler.now()
        self.announced_epoch = epoch
        self.candidates = {e: c for e, c in self.candidates.items()
                           if e > epoch}

    def send_leader_info(self, dst: Any) -> None:
        """Tell server ``dst`` who leads, at which epoch."""
        server = self._server
        server._send_control(self._size, dst, dst.election.leader_info,
                             server.leader_name, server.epoch)

    def leader_info(self, leader: str, epoch: int) -> None:
        server = self._server
        if epoch < server.epoch or leader == server.name:
            return
        if epoch == server.epoch and not server.is_leader \
                and leader == server.leader_name:
            return  # nothing new
        server.follow(leader, epoch)

    def rejoin(self) -> None:
        """The server recovered: its peers send their leader info, and the
        leader it still follows is asked for the commits slept through."""
        server = self._server
        if not self._enabled:
            return
        self._last_pong_ms = self._scheduler.now()
        for peer in server.peers:
            server._send_control(self._size, peer,
                                 peer.election.send_leader_info, server)
        if not server.is_leader and server.leader_name is not None:
            server.request_sync(server.epoch)
