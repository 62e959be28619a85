"""Zab: atomic broadcast bookkeeping and a server's recovery role.

The leader assigns a monotonically increasing ``zxid`` to every write
transaction, broadcasts a proposal, collects acknowledgements, and commits
once a majority (including itself) has acknowledged.  Every server applies
committed transactions in strict zxid order, which is what gives the
replicated queue its total order.  :class:`ProposalTracker` and
:class:`CommitLog` are the pure data structures; the hops that drive them
live in :mod:`repro.zookeeper_sim.server`.

:class:`ZabRecovery`, mixed into the server, is failure detection and
leader election (``config.heartbeat_interval_ms > 0`` plus
:meth:`ZabRecovery.enable_failure_detection`).  Followers ping the leader
(``_zk_ping`` / ``_zk_pong``); one that hears nothing for
``leader_timeout_ms`` announces its candidacy with its last applied zxid
(``_zk_election``).  After ``election_window_ms`` each elector tallies the
candidacies (a majority of the ensemble is required), and the one with the
highest ``(last_applied, name)`` bumps the epoch and announces itself
(``_zk_leader_info``).  Followers drop the dead epoch's uncommitted
proposals, catch up from the leader's applied log (``_zk_sync_req`` /
``_zk_sync``, or a full ``_zk_snapshot``) and re-forward writes in flight.
Zab hops are epoch-tagged, so a deposed leader's stragglers are ignored.
A recovering server has its peers send it their ``_zk_leader_info`` and
follows whoever leads.  Writes orphaned by a leader crash are abandoned
server-side; clients re-issue them (at-least-once), as with ZooKeeper
session retries.  These hops go through
:meth:`~repro.sim.node.Node._send_control`; each carries the sender node
where the receiver answers it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Dict, List, NamedTuple, Sequence, Set, Tuple,
                    TYPE_CHECKING)

from repro.sim.network import MESSAGE_HEADER_BYTES, estimate_payload_size

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.zookeeper_sim.server import ZKServer


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

    def discard_uncommitted(self) -> None:
        """Drop every entry beyond ``last_applied``.

        Called when a new leader takes over: proposals of the dead epoch that
        never reached this server as applicable transactions are abandoned
        (the origin's client will time out and retry through the new leader).
        """
        applied = self.last_applied
        self._known = {z: t for z, t in self._known.items() if z <= applied}
        self._committed = {z for z in self._committed if z <= applied}


class ZabRecovery:
    """A server's failure detection, election, sync and snapshot hops."""

    # -- failure detection & election -------------------------------------
    def enable_failure_detection(self) -> None:
        """Start the heartbeat/election machinery on this server (a no-op
        unless ``config.heartbeat_interval_ms > 0``)."""
        if self._failure_detection or self.config.heartbeat_interval_ms <= 0:
            return
        self._failure_detection = True
        self._last_pong_ms = self.scheduler.now()
        self._schedule_heartbeat()

    def _schedule_heartbeat(self) -> None:
        self.scheduler.schedule(self.config.heartbeat_interval_ms,
                                self._heartbeat_tick)

    def _heartbeat_tick(self) -> None:
        # Keep the tick alive through crashes so a recovered follower
        # resumes monitoring; a crashed node neither sends nor suspects.
        self._schedule_heartbeat()
        if self._orphan_origins:
            self._expire_orphan_origins()
        if not self.alive or self.is_leader or self.leader_name is None:
            return
        self._send_control(self._ack_size, self._leader._zk_ping, self)
        stale_for = self.scheduler.now() - self._last_pong_ms
        if stale_for > self.config.leader_timeout_ms:
            self._start_election()
            return
        # Self-healing: transactions are queued but nothing has applied for
        # a whole leader-timeout (e.g. a proposal was lost while switching
        # epochs) — ask the leader for a sync + retransmission.
        if self.commit_log.has_backlog() and \
                (self.scheduler.now() - self._last_progress_ms
                 > self.config.leader_timeout_ms):
            self._last_progress_ms = self.scheduler.now()
            self._request_sync(self.epoch)

    def _request_sync(self, epoch: int) -> None:
        """Ask the leader for what this server missed; ``epoch`` (the one it
        last followed) decides between a diff sync and a full snapshot."""
        self._send_control(self._ack_size, self._leader._zk_sync_req, self,
                           self.commit_log.last_applied, epoch)

    def _zk_ping(self, follower: ZKServer) -> None:
        if self.is_leader:
            self._send_control(self._ack_size, follower._zk_pong, self.epoch)
        else:
            # Stale ping (this server was deposed or never led): redirect.
            self._send_leader_info(follower)

    def _zk_pong(self, epoch: int) -> None:
        if epoch >= self.epoch:
            self._last_pong_ms = self.scheduler.now()

    def _start_election(self) -> None:
        target_epoch = self.epoch + 1
        if self._announced_epoch >= target_epoch:
            return  # already campaigning for this epoch (or a newer one)
        self.elections_started += 1
        self._announce_candidacy(target_epoch)

    def _announce_candidacy(self, epoch: int) -> None:
        self._announced_epoch = epoch
        candidates = self._election_candidates.setdefault(epoch, {})
        candidates[self.name] = self.commit_log.last_applied
        for peer in self._peers:
            self._send_control(self._ack_size, peer._zk_election, self, epoch,
                               self.commit_log.last_applied)
        self.scheduler.schedule(self.config.election_window_ms,
                                self._conclude_election, epoch)

    def _zk_election(self, candidate: ZKServer, epoch: int,
                     last_applied: int) -> None:
        if epoch <= self.epoch:
            # A stale suspicion; if this server currently leads, reassert.
            if self.is_leader:
                self._send_leader_info(candidate)
            return
        candidates = self._election_candidates.setdefault(epoch, {})
        candidates[candidate.name] = last_applied
        if self._announced_epoch < epoch and not self.is_leader:
            self._announce_candidacy(epoch)

    def _conclude_election(self, epoch: int) -> None:
        if not self.alive or self.epoch >= epoch:
            return  # crashed meanwhile, or a leader for this epoch emerged
        candidates = self._election_candidates.get(epoch, {})
        if len(candidates) < self.quorum_size:
            # Not enough electors reachable: abandon this round so a later
            # heartbeat tick can start a fresh one.
            self._election_candidates.pop(epoch, None)
            self._announced_epoch = self.epoch
            return
        winner = max(candidates.items(), key=lambda kv: (kv[1], kv[0]))[0]
        if winner == self.name:
            self._promote(epoch)
            return
        # Give the winner time to announce; if no new leader materializes,
        # allow another election round.
        self.scheduler.schedule(3 * self.config.election_window_ms,
                                self._check_leader_emerged, epoch)

    def _check_leader_emerged(self, epoch: int) -> None:
        if self.alive and self.epoch < epoch:
            self._election_candidates.pop(epoch, None)
            self._announced_epoch = self.epoch

    def _promote(self, epoch: int) -> None:
        """Take over leadership for ``epoch``."""
        self.epoch = epoch
        self.promotions += 1
        # Proposals of the dead epoch that never committed are re-proposed
        # under the new epoch with fresh zxids continuing from last_applied:
        # the zxid sequence stays gapless, so commit logs (which apply in
        # strict last_applied+1 order) keep making progress.
        orphans = self.commit_log.uncommitted_transactions()
        self.commit_log.discard_uncommitted()
        self._drop_stale_origins()
        self.become_leader(self.ensemble,
                           next_zxid=self.commit_log.last_applied + 1)
        self._election_candidates = {
            e: c for e, c in self._election_candidates.items() if e > epoch}
        for peer in self._peers:
            self._send_control(self._ack_size, peer._zk_leader_info,
                               self.name, epoch)
        for txn in orphans:
            self._repropose(txn)
        # Writes this server had forwarded to the dead leader restart here.
        pending = list(self._forwarded.values())
        self._forwarded.clear()
        for op in pending:
            self._propose(self.name, op, None)

    def _repropose(self, txn: Transaction) -> None:
        """Re-issue a dead-epoch transaction under this leadership: same
        operation, origin server and origin request id (the origin can still
        answer its client), a fresh zxid and epoch."""
        assert self.tracker is not None
        renumbered = txn._replace(zxid=self.tracker.next_zxid())
        if txn.origin_server == self.name:
            self._reattach_origin(renumbered)
        self._broadcast_proposal(renumbered)

    def _reattach_origin(self, txn: Transaction) -> None:
        """``txn`` re-proposes a request this server stashed when its first
        proposal died with a deposed leader: answer that client after all."""
        orphan = self._orphan_origins.pop(txn.origin_request, None)
        if orphan is not None:
            self._origin_requests[txn.zxid] = (orphan[0], txn.origin_request)

    def _adopt_leader(self, leader: str, epoch: int) -> None:
        """Follow ``leader`` (never this server) from ``epoch`` on."""
        prev_epoch = self.epoch
        self.epoch = epoch
        self.become_follower(leader, self.ensemble)
        self.commit_log.discard_uncommitted()
        self._drop_stale_origins()
        self._last_pong_ms = self.scheduler.now()
        self._announced_epoch = self.epoch
        self._election_candidates = {
            e: c for e, c in self._election_candidates.items() if e > epoch}
        # Catch up on what committed while this server was behind; it may
        # carry applied state from a dead leadership, hence the old epoch.
        self._request_sync(prev_epoch)
        # Writes forwarded to the dead leader are re-forwarded to the new one.
        for forward_id, op in self._forwarded.items():
            self.network.fused_send_to(self, leader, self._txn_size,
                                       self._leader._zk_forward,
                                       (self.name, forward_id, op))

    def _drop_stale_origins(self) -> None:
        """Detach origin bookkeeping from zxids of abandoned proposals and
        stash it by origin request id for :meth:`_reattach_origin`.  Entries
        never re-proposed are answered by the client's own timeout/retry
        (at-least-once), as with real ZooKeeper session recovery, and
        expire with it."""
        applied = self.commit_log.last_applied
        now = self.scheduler.now()
        for zxid in [z for z in self._origin_requests if z > applied]:
            op, origin_request = self._origin_requests.pop(zxid)
            self._orphan_origins[origin_request] = (op, now)

    def _expire_orphan_origins(self) -> None:
        """Forget stashed origins whose client cannot be waiting any more
        (with client timeouts off it still is: keep them)."""
        if self._client_patience_ms > 0:
            cutoff = self.scheduler.now() - self._client_patience_ms
            self._orphan_origins = {
                request: entry for request, entry
                in self._orphan_origins.items() if entry[1] > cutoff}

    def _send_leader_info(self, dst: ZKServer) -> None:
        self._send_control(self._ack_size, dst._zk_leader_info,
                           self.leader_name, self.epoch)

    def _zk_leader_info(self, leader: str, epoch: int) -> None:
        if epoch < self.epoch or leader == self.name:
            return
        if epoch == self.epoch and not self.is_leader \
                and leader == self.leader_name:
            return  # nothing new
        self._adopt_leader(leader, epoch)

    def _zk_sync_req(self, follower: ZKServer, last_applied: int,
                     epoch: int) -> None:
        if epoch < self.epoch or last_applied > self.commit_log.last_applied:
            # The requester slept through at least one election (or carries
            # applied state from a dead leadership whose zxids this epoch
            # recycled): a diff sync cannot reconcile it, send a snapshot.
            self._send_snapshot(follower)
            self._retransmit_pending(follower)
            return
        missing = [txn for txn in self.applied_log if txn.zxid > last_applied]
        if missing:
            self.syncs_served += 1
            self._send_control(
                MESSAGE_HEADER_BYTES + len(missing) * (
                    self.config.path_size_bytes
                    + self.config.element_size_bytes),
                follower._zk_sync, missing)
        self._retransmit_pending(follower)

    def _retransmit_pending(self, follower: ZKServer) -> None:
        """Re-send every uncommitted proposal of this leadership to
        ``follower``: one adopting a new leader mid-stream dropped
        (epoch-guarded) what was broadcast before it switched epochs, and
        those zxids could otherwise never reach quorum, stalling every later
        transaction."""
        if not self.is_leader or self.tracker is None:
            return
        for txn in self.tracker.pending_transactions():
            self.network.fused_send_to(self, follower.name, self._txn_size,
                                       follower._zab_proposal,
                                       (txn, self.epoch, self))

    def _zk_sync(self, txns: List[Transaction]) -> None:
        for txn in txns:
            if txn.zxid > self.commit_log.last_applied:
                self._apply_committed(txn)
                self.commit_log.last_applied = txn.zxid

    def _send_snapshot(self, dst: ZKServer) -> None:
        """Full state transfer (ZooKeeper's SNAP sync): tree + applied log."""
        self.snapshots_served += 1
        tree_snapshot = self.tree.snapshot()
        # The log goes as a tuple of the shared records: the receiver gets
        # the transactions, never this server's own (growing) list.
        log = tuple(self.applied_log)
        self._send_control(
            MESSAGE_HEADER_BYTES + estimate_payload_size(tree_snapshot)
            + len(log) * self.config.path_size_bytes,
            dst._zk_snapshot, self.epoch, self.leader_name,
            self.commit_log.last_applied, tree_snapshot, log)

    def _zk_snapshot(self, epoch: int, leader: str, last_applied: int,
                     tree: Any, log: Tuple[Transaction, ...]) -> None:
        if epoch < self.epoch:
            return  # stale snapshot from a deposed leadership
        self.snapshots_received += 1
        # Adopt the snapshot's leadership too: without this, a stale-epoch
        # receiver would install the state but keep epoch-guarding away all
        # current Zab traffic until a leader-info hop happened by.
        if epoch > self.epoch and leader != self.name:
            self.epoch = epoch
            self.become_follower(leader, self.ensemble)
            self._announced_epoch = self.epoch
            self._last_pong_ms = self.scheduler.now()
        self.tree.restore(tree)
        self.commit_log = CommitLog()
        self.commit_log.last_applied = last_applied
        self.applied_log = list(log)
        # Any origin bookkeeping beyond the snapshot point refers to a dead
        # leadership; clients recover via their own timeout/retry.
        self._drop_stale_origins()

    def recover(self) -> None:
        super().recover()
        if not self._failure_detection:
            return
        # Rejoin: a deposed leader (or stale follower) finds out who leads
        # now and follows; peers answer with their leader info.
        self._last_pong_ms = self.scheduler.now()
        for peer in self._peers:
            self._send_control(self._ack_size, peer._send_leader_info, self)
        # If leadership never moved, the leader info brings nothing new:
        # ask the (still-current) leader directly for the commits slept
        # through.
        if not self.is_leader and self.leader_name is not None:
            self._request_sync(self.epoch)
