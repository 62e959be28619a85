"""ZooKeeper server node: leader or follower.

Request flow for a write transaction (create / delete / enqueue / dequeue).
Each hop is a continuation scheduled at its delivery instant by
:meth:`~repro.sim.network.Network.fused_send_to` — no ``Message``, no
payload dict — carrying the client's one
:class:`~repro.zookeeper_sim.client.ZkOp` or the leader's one
:class:`~repro.zookeeper_sim.zab.Transaction` by reference:

1. a client sends its ``ZkOp`` to the server it is connected to
   (:meth:`ZKServer._zk_request`);
2. a follower forwards the record to the leader under a server-local forward
   id (``_zk_forward``); the leader assigns a zxid and broadcasts the
   transaction with its epoch (``_zab_proposal``);
3. followers acknowledge (``_zab_ack``); when a majority (leader included)
   acked, the leader sends ``_zab_commit`` to all and applies the transaction;
4. every server applies committed transactions in zxid order; the server
   that originally received the client request (the *origin*) computes the
   result of the application locally and answers ``ZKClient._zk_response``.

A request-path continuation opens with the delivery step inlined (a dead
destination counts a drop, a live one a delivery), then the epoch guard,
then the processing-queue job.  Servers read only what was on the
wire — ``req_id/op/path/data/sequential/icg`` and the reply address
``client`` — never the record's retry state.

Reads (``get``, ``get_children``) are served from the contacted server's
local tree without coordination, exactly as in ZooKeeper.

Correctable ZooKeeper (CZK) fast path: a request flagged ``icg`` is first
*simulated* on the contacted server's local state; the simulated result is
returned immediately (``ZKClient._zk_preliminary``) before the transaction
enters Zab.  Simulations of concurrent requests on the same server observe
each other's tentative effects (e.g. two retailers simulating a dequeue
obtain different tickets), mirroring what applying the operations to a copy
of the local state would do.

Failure detection and leader election (enabled by
``config.heartbeat_interval_ms > 0`` plus
:meth:`ZKServer.enable_failure_detection`): followers ping the leader every
heartbeat interval (``_zk_ping`` / ``_zk_pong``); one that misses replies
for ``leader_timeout_ms`` announces its candidacy (``_zk_election``)
carrying its last applied zxid.  After ``election_window_ms`` every elector
tallies the candidacies it saw — requiring a majority of the ensemble — and
the candidate with the highest ``(last_applied, name)`` promotes itself,
bumps the epoch, and broadcasts ``_zk_new_leader``.  Followers then discard
uncommitted proposals of the dead epoch, catch up missing transactions from
the new leader's applied log (``_zk_sync_req`` / ``_zk_sync``, or a full
``_zk_snapshot``), and re-forward writes that were in flight.  Zab hops are
epoch-tagged so stragglers from a deposed leader are ignored.  A recovering
server asks its peers (``_zk_whois_leader``) and rejoins as a follower of
whoever currently leads (``_zk_leader_info``).  Writes orphaned by a leader
crash are abandoned server-side; clients re-issue them (at-least-once), as
with real ZooKeeper session retries.  These control-plane hops are
continuations too, sent by :meth:`~repro.sim.node.Node._send_control` and
delivered through :meth:`~repro.sim.node.Node._receive_control`, the one
delivery step they share; each carries the sender node where the receiver
answers it.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.sim.network import (MESSAGE_HEADER_BYTES, Network,
                               estimate_payload_size)
from repro.sim.node import Node
from repro.zookeeper_sim.config import ZooKeeperConfig
from repro.zookeeper_sim.datatree import DataTree, NoNodeError, NodeExistsError
from repro.zookeeper_sim.zab import CommitLog, ProposalTracker, Transaction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.zookeeper_sim.client import ZkOp

#: Operation types that mutate state and therefore go through Zab.
WRITE_OPS = {"create", "delete", "enqueue", "dequeue"}
#: Operation types served locally by the contacted server.
READ_OPS = {"get", "get_children"}


class ZKServer(Node):
    """One member of the ensemble (leader or follower)."""

    def __init__(self, name: str, region: str, network: Network,
                 config: ZooKeeperConfig) -> None:
        super().__init__(name, region, network)
        self.config = config
        self.tree = DataTree()
        self.is_leader = False
        self.leader_name: Optional[str] = None
        self.ensemble: List[str] = []
        #: Leader and peers (ensemble order) as node objects, resolved when
        #: the role changes — never per hop.
        self._leader: Optional[ZKServer] = None
        self._peers: Tuple[ZKServer, ...] = ()
        # Wire sizes of the three message shapes (the config never changes).
        self._ack_size = MESSAGE_HEADER_BYTES + config.ack_bytes
        self._txn_size = (MESSAGE_HEADER_BYTES + config.path_size_bytes
                          + config.element_size_bytes)
        self._reply_size = self._ack_size + config.element_size_bytes
        #: How long a stashed origin is worth keeping (0: forever).
        self._client_patience_ms = config.client_patience_ms()
        self.tracker: Optional[ProposalTracker] = None
        self.commit_log = CommitLog()
        # origin bookkeeping: zxid -> (operation, origin request id) for
        # requests this server must answer after applying the commit.
        self._origin_requests: Dict[int, Tuple[ZkOp, int]] = {}
        # follower-side: operations forwarded to the leader awaiting a zxid,
        # by server-local forward id (client req_ids collide across clients).
        self._forwarded: Dict[int, ZkOp] = {}
        self._next_forward_id = 1
        # CZK simulation overlay (tentative effects of in-flight operations).
        self._simulated_removed: Set[str] = set()
        self._simulated_created: Dict[str, int] = {}
        # Failure detection / election state.
        self.epoch = 0
        self.applied_log: List[Transaction] = []
        self._failure_detection = False
        self._last_pong_ms = 0.0
        #: Last time a transaction applied locally (stall detection).
        self._last_progress_ms = 0.0
        #: Highest epoch this server has announced a candidacy for.
        self._announced_epoch = 0
        #: Election epoch -> candidate name -> last applied zxid.
        self._election_candidates: Dict[int, Dict[str, int]] = {}
        #: Origin bookkeeping for requests whose proposal died with a deposed
        #: leader: origin request id -> (operation, time stashed).  Re-attached
        #: when the transaction is re-proposed (same ``origin_request``),
        #: dropped by the heartbeat tick once the client has given up.
        self._orphan_origins: Dict[int, Tuple[ZkOp, float]] = {}
        # Instrumentation.
        self.preliminaries_sent = 0
        self.transactions_applied = 0
        self.reads_served = 0
        self.elections_started = 0
        self.promotions = 0
        self.syncs_served = 0
        self.snapshots_served = 0
        self.snapshots_received = 0

    # -- ensemble wiring ----------------------------------------------------
    def become_leader(self, ensemble: List[str], next_zxid: int = 1) -> None:
        self.is_leader = True
        self._set_ensemble(ensemble, self.name)
        self.tracker = ProposalTracker(len(ensemble), next_zxid=next_zxid)

    def become_follower(self, leader_name: str, ensemble: List[str]) -> None:
        self.is_leader = False
        self._set_ensemble(ensemble, leader_name)
        self.tracker = None

    def _set_ensemble(self, ensemble: List[str], leader_name: str) -> None:
        node = self.network.node
        self.ensemble = list(ensemble)
        self.leader_name = leader_name
        self._leader = node(leader_name)
        self._peers = tuple(node(n) for n in ensemble if n != self.name)

    @property
    def quorum_size(self) -> int:
        return len(self.ensemble) // 2 + 1

    # -- failure detection & election -----------------------------------------
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
            self._send_control(self._ack_size, peer._zk_new_leader,
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

    def _zk_new_leader(self, leader: str, epoch: int) -> None:
        if epoch < self.epoch:
            return
        if epoch == self.epoch and leader == self.leader_name:
            return  # duplicate announcement
        self._adopt_leader(leader, epoch)

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

    def _zk_whois_leader(self, asking: ZKServer) -> None:
        self._send_leader_info(asking)

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
            self._send_control(self._ack_size, peer._zk_whois_leader, self)
        # If leadership never moved, the leader info brings nothing new:
        # ask the (still-current) leader directly for the commits slept
        # through.
        if not self.is_leader and self.leader_name is not None:
            self._request_sync(self.epoch)

    # -- client requests -------------------------------------------------------
    def _zk_request(self, op: ZkOp) -> None:
        if not self.alive:
            self.network.messages_dropped += 1
            return
        self.network.messages_delivered += 1
        self._enqueue(self.config.request_service_ms, self._handle_request,
                      (op,))

    def _handle_request(self, op: ZkOp) -> None:
        kind = op.op
        if kind in READ_OPS:
            self._serve_read(op)
            return
        if kind not in WRITE_OPS:
            self._respond(op, ok=False, error=f"unknown operation {kind!r}")
            return
        if op.icg:
            self._enqueue(self.config.simulation_service_ms,
                          self._send_preliminary, (op,))
        self._propose(self.name, op, None)

    # -- local reads --------------------------------------------------------------
    def _serve_read(self, op: ZkOp) -> None:
        self.reads_served += 1
        kind = op.op
        path = op.path
        try:
            if kind == "get":
                result = self.tree.get(path)
                size = self._reply_size
            else:  # get_children
                result = self.tree.get_children(path)
                size = (self._ack_size
                        + len(result) * self.config.child_name_bytes)
        except NoNodeError as exc:
            self._respond(op, ok=False, error=f"NoNode: {exc}")
            return
        self._respond(op, ok=True, result=result, size_bytes=size)

    # -- CZK preliminary (local simulation) -------------------------------------------
    def _send_preliminary(self, op: ZkOp) -> None:
        result = self._simulate(op.op, op.path, op.sequential)
        self.preliminaries_sent += 1
        client = op.client
        self.network.fused_send_to(self, client.name, self._reply_size,
                                   client._zk_preliminary,
                                   (op.req_id, result))

    def _simulate(self, op: str, path: str, sequential: bool = False) -> Any:
        """Apply the operation to the local state *tentatively*."""
        if op == "enqueue" or (op == "create" and sequential):
            queue_path = path if op == "enqueue" else path.rsplit("/", 1)[0]
            try:
                existing = self.tree.child_count(queue_path)
            except NoNodeError:
                existing = 0
            offset = self._simulated_created.get(queue_path, 0)
            self._simulated_created[queue_path] = offset + 1
            position = existing + offset
            return {"name": f"item-{position:010d}", "position": position}
        if op == "dequeue":
            # The head as this server would see it with every tentative
            # removal applied; only those few paths are looked at.
            try:
                first = self.tree.first_child(path, self._simulated_removed)
            except NoNodeError:
                first = None
            if first is None:
                return {"item": None, "name": None, "remaining": 0}
            head, item, remaining = first
            self._simulated_removed.add(f"{path}/{head}")
            return {"item": item, "name": head, "remaining": remaining}
        if op == "delete":
            self._simulated_removed.add(path)
            return {"deleted": path}
        return {"path": path}  # a plain create

    # -- write path ----------------------------------------------------------------------
    def _zk_forward(self, origin_server: str, forward_id: int,
                    op: ZkOp) -> None:
        if not self.alive:
            self.network.messages_dropped += 1
            return
        self.network.messages_delivered += 1
        self._enqueue(self.config.proposal_service_ms, self._propose,
                      (origin_server, op, forward_id))

    def _propose(self, origin_server: str, op: ZkOp,
                 forward_id: Optional[int]) -> None:
        """Turn ``op`` into a transaction, or pass it on to the leader;
        ``forward_id`` is ``None`` when this server took the request from
        the client itself."""
        # Leader-origin requests draw their origin id from the counter the
        # forward ids come from: one ``origin_request`` namespace per origin
        # server (client req_ids would collide with forward ids on re-proposal).
        local = forward_id is None
        if local:
            forward_id = self._next_forward_id
            self._next_forward_id += 1
        if not self.is_leader or self.tracker is None:
            # A follower, or a leader deposed between receiving the request
            # and processing it: the leader proposes it.
            if local:
                self._forwarded[forward_id] = op
            leader = self._leader
            self.network.fused_send_to(self, leader.name, self._txn_size,
                                       leader._zk_forward,
                                       (origin_server, forward_id, op))
            return
        enqueue = op.op == "enqueue"
        # One interned item path per queue, shared by all its enqueues.
        txn = Transaction(
            self.tracker.next_zxid(),
            "create" if enqueue else op.op,
            sys.intern(op.path + "/item-") if enqueue else op.path,
            op.data, enqueue or bool(op.sequential),
            origin_server, forward_id)
        if local:
            self._origin_requests[txn.zxid] = (op, forward_id)
        self._broadcast_proposal(txn)

    def _broadcast_proposal(self, txn: Transaction) -> None:
        """Track ``txn``, propose it to every peer, and ack it locally (one
        argument tuple around the one transaction record serves all peers)."""
        tracker = self.tracker
        tracker.track(txn)
        self.commit_log.learn(txn)
        send = self.network.fused_send_to
        proposal = (txn, self.epoch, self)
        for peer in self._peers:
            send(self, peer.name, self._txn_size, peer._zab_proposal, proposal)
        # The leader acknowledges its own proposal.
        if tracker.record_ack(txn.zxid, self.name):
            self._commit(txn.zxid)

    def _zab_proposal(self, txn: Transaction, epoch: int,
                      leader: ZKServer) -> None:
        if not self.alive:
            self.network.messages_dropped += 1
            return
        self.network.messages_delivered += 1
        if epoch != self.epoch:
            if epoch < self.epoch:
                # A deposed-but-alive leader (partitioned away during the
                # election) still proposes: tell it who leads now.
                self._send_leader_info(leader)
            return
        self._enqueue(self.config.apply_service_ms, self._ack_proposal,
                      (txn, epoch))

    def _ack_proposal(self, txn: Transaction, epoch: int) -> None:
        self.commit_log.learn(txn)
        # The follower that forwarded this request answers its client once
        # the commit applies locally.
        if txn.origin_server == self.name:
            op = self._forwarded.pop(txn.origin_request, None)
            if op is not None:
                self._origin_requests[txn.zxid] = (op, txn.origin_request)
            else:  # the new leader's re-proposal of a dead one
                self._reattach_origin(txn)
        leader = self._leader
        self.network.fused_send_to(self, leader.name, self._ack_size,
                                   leader._zab_ack,
                                   (txn.zxid, self.name, epoch))

    def _zab_ack(self, zxid: int, server: str, epoch: int) -> None:
        if not self.alive:
            self.network.messages_dropped += 1
            return
        self.network.messages_delivered += 1
        if not self.is_leader or self.tracker is None:
            return  # late ack for a proposal of a previous leadership
        if epoch == self.epoch and self.tracker.record_ack(zxid, server):
            self._commit(zxid)

    def _commit(self, zxid: int) -> None:
        # Committed: nothing will retransmit or count acks for it again.
        self.tracker.forget(zxid)
        send = self.network.fused_send_to
        commit = (zxid, self.epoch)
        for peer in self._peers:
            send(self, peer.name, self._ack_size, peer._zab_commit, commit)
        self._learn_commit(zxid)

    def _zab_commit(self, zxid: int, epoch: int) -> None:
        if not self.alive:
            self.network.messages_dropped += 1
            return
        self.network.messages_delivered += 1
        if epoch == self.epoch:
            self._enqueue(self.config.apply_service_ms, self._learn_commit,
                          (zxid,))

    def _learn_commit(self, zxid: int) -> None:
        for txn in self.commit_log.commit(zxid):
            self._apply_committed(txn)

    # -- applying transactions -------------------------------------------------------------
    def _apply_committed(self, txn: Transaction) -> None:
        """Apply the next transaction of the log; answer its client if the
        request came in through this server."""
        origin = self._origin_requests.pop(txn.zxid, None)
        self.transactions_applied += 1
        self.applied_log.append(txn)
        self._last_progress_ms = self.scheduler.clock._now
        self._apply(txn, None if origin is None else origin[0])

    def _apply(self, txn: Transaction, origin: Optional[ZkOp] = None) -> None:
        """Apply ``txn`` (a create, delete or dequeue) to the tree and, when
        ``origin`` is the client request it came from, answer it; the
        other servers build no result."""
        op = txn.op
        path = txn.path
        try:
            if op == "create":
                created = self.tree.create(path, txn.data,
                                           sequential=txn.sequential)
                parent_path = path.rsplit("/", 1)[0]
                pending = self._simulated_created.get(parent_path, 0)
                if pending > 0:
                    self._simulated_created[parent_path] = pending - 1
            elif op == "delete":
                self.tree.delete(path)
                self._simulated_removed.discard(path)
            else:  # dequeue
                popped = self.tree.pop_first_child(path)
                if popped is not None:
                    self._simulated_removed.discard(f"{path}/{popped[0]}")
        except (NoNodeError, NodeExistsError, ValueError) as exc:
            if origin is not None:
                self._respond(origin, False,
                              error=f"{type(exc).__name__}: {exc}")
            return
        if origin is None:
            return
        if op == "create":
            result = {"path": created, "name": created.rsplit("/", 1)[1],
                      "position": self.tree.child_count(parent_path or "/")
                      - 1}
        elif op == "delete":
            result = {"deleted": path}
        elif popped is None:
            result = {"item": None, "name": None, "remaining": 0}
        else:
            result = {"item": popped[1], "name": popped[0],
                      "remaining": popped[2]}
        self._respond(origin, True, result)

    # -- responses ------------------------------------------------------------------------------
    def _respond(self, op: ZkOp, ok: bool, result: Any = None,
                 error: Optional[str] = None,
                 size_bytes: Optional[int] = None) -> None:
        client = op.client
        self.network.fused_send_to(
            self, client.name, size_bytes or self._reply_size,
            client._zk_response, (op.req_id, ok, result, error))
