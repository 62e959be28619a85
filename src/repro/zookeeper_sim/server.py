"""ZooKeeper server node: leader or follower.

Request flow for a write transaction (create / delete / set / dequeue):

1. a client sends ``zk_request`` to the server it is connected to;
2. if the server is a follower it forwards the request to the leader
   (``zk_forward``); the leader assigns a zxid and broadcasts
   ``zab_proposal``;
3. followers acknowledge with ``zab_ack``; when a majority (leader included)
   acked, the leader sends ``zab_commit`` to all and applies the transaction;
4. every server applies committed transactions in zxid order; the server
   that originally received the client request (the *origin*) computes the
   result of the application locally and replies with ``zk_response``.

Reads (``get``, ``get_children``) are served from the contacted server's
local tree without coordination, exactly as in ZooKeeper.

Correctable ZooKeeper (CZK) fast path: a request flagged ``icg`` is first
*simulated* on the contacted server's local state; the simulated result is
returned immediately as ``zk_preliminary`` before the transaction enters Zab.
Simulations of concurrent requests on the same server observe each other's
tentative effects (e.g. two retailers simulating a dequeue obtain different
tickets), mirroring what applying the operations to a copy of the local
state would do.

Failure detection and leader election (enabled by
``config.heartbeat_interval_ms > 0`` plus
:meth:`ZKServer.enable_failure_detection`): followers ping the leader every
heartbeat interval; one that misses replies for ``leader_timeout_ms``
announces its candidacy (``zk_election``) carrying its last applied zxid.
After ``election_window_ms`` every elector tallies the candidacies it saw —
requiring a majority of the ensemble — and the candidate with the highest
``(last_applied, name)`` promotes itself, bumps the epoch, and broadcasts
``zk_new_leader``.  Followers then discard uncommitted proposals of the dead
epoch, catch up missing transactions from the new leader's applied log
(``zk_sync_req`` / ``zk_sync``), and re-forward writes that were in flight.
Zab messages are epoch-tagged so stragglers from a deposed leader are
ignored.  A recovering server broadcasts ``zk_whois_leader`` and rejoins as a
follower of whoever currently leads.  Writes orphaned by a leader crash are
abandoned server-side; clients re-issue them (at-least-once), as with real
ZooKeeper session retries.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.sim.network import (
    MESSAGE_HEADER_BYTES,
    Message,
    Network,
    estimate_payload_size,
)
from repro.sim.node import Node
from repro.zookeeper_sim.config import ZooKeeperConfig
from repro.zookeeper_sim.datatree import DataTree, NoNodeError, NodeExistsError
from repro.zookeeper_sim.zab import CommitLog, ProposalTracker, Transaction

#: Operation types that mutate state and therefore go through Zab.
WRITE_OPS = {"create", "delete", "set", "enqueue", "dequeue"}
#: Operation types served locally by the contacted server.
READ_OPS = {"get", "get_children", "exists"}


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
        #: Every other ensemble member, in ensemble order (set with the role).
        self._peers: Tuple[str, ...] = ()
        # Wire sizes of the three message shapes; the config never changes
        # under a running server.
        self._ack_size = MESSAGE_HEADER_BYTES + config.ack_bytes
        self._txn_size = (MESSAGE_HEADER_BYTES + config.path_size_bytes
                          + config.element_size_bytes)
        self._reply_size = self._ack_size + config.element_size_bytes
        self.tracker: Optional[ProposalTracker] = None
        self.commit_log = CommitLog()
        # origin bookkeeping: zxid -> (client, request_id) for requests this
        # server received (it must answer them after applying the commit).
        self._origin_requests: Dict[int, Dict[str, Any]] = {}
        # follower-side: requests forwarded to the leader awaiting a zxid,
        # keyed by a server-local forward id (client req_ids may collide
        # across clients).
        self._forwarded: Dict[int, Dict[str, Any]] = {}
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
        #: leader, keyed by the forward id; re-attached when the new leader
        #: re-proposes the transaction (same ``origin_request``).
        self._orphan_origins: Dict[int, Dict[str, Any]] = {}
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
        self.leader_name = self.name
        self._set_ensemble(ensemble)
        self.tracker = ProposalTracker(len(ensemble), next_zxid=next_zxid)

    def become_follower(self, leader_name: str, ensemble: List[str]) -> None:
        self.is_leader = False
        self.leader_name = leader_name
        self._set_ensemble(ensemble)
        self.tracker = None

    def _set_ensemble(self, ensemble: List[str]) -> None:
        self.ensemble = list(ensemble)
        self._peers = tuple(name for name in ensemble if name != self.name)

    @property
    def quorum_size(self) -> int:
        return len(self.ensemble) // 2 + 1

    # -- failure detection & election -----------------------------------------
    def enable_failure_detection(self) -> None:
        """Start the heartbeat/election machinery on this server.

        No-op unless ``config.heartbeat_interval_ms > 0``; with the default
        configuration the ensemble behaves exactly as the fault-free seed.
        """
        if self._failure_detection or self.config.heartbeat_interval_ms <= 0:
            return
        self._failure_detection = True
        self._last_pong_ms = self.scheduler.now()
        self._schedule_heartbeat()

    def _schedule_heartbeat(self) -> None:
        self.scheduler.schedule(self.config.heartbeat_interval_ms,
                                self._heartbeat_tick)

    def _heartbeat_tick(self) -> None:
        if not self._failure_detection:
            return
        # Keep the tick alive through crashes so a recovered follower
        # resumes monitoring; a crashed node neither sends nor suspects.
        self._schedule_heartbeat()
        if not self.alive or self.is_leader or self.leader_name is None:
            return
        self.send(self.leader_name, "zk_ping", {"server": self.name},
                  size_bytes=self._ack_size)
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
            self.send(self.leader_name, "zk_sync_req",
                      {"server": self.name,
                       "last_applied": self.commit_log.last_applied,
                       "epoch": self.epoch},
                      size_bytes=self._ack_size)

    def on_zk_ping(self, message: Message) -> None:
        if self.is_leader:
            self.send(message.src, "zk_pong", {"epoch": self.epoch},
                      size_bytes=self._ack_size)
        else:
            # Stale ping (this server was deposed or never led): redirect.
            self._send_leader_info(message.src)

    def on_zk_pong(self, message: Message) -> None:
        if message.payload.get("epoch", self.epoch) >= self.epoch:
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
            self.send(peer, "zk_election",
                      {"epoch": epoch, "candidate": self.name,
                       "last_applied": self.commit_log.last_applied},
                      size_bytes=self._ack_size)
        self.scheduler.schedule(self.config.election_window_ms,
                                self._conclude_election, epoch)

    def on_zk_election(self, message: Message) -> None:
        payload = message.payload
        epoch = payload["epoch"]
        if epoch <= self.epoch:
            # A stale suspicion; if this server currently leads, reassert.
            if self.is_leader and self.alive:
                self._send_leader_info(message.src)
            return
        candidates = self._election_candidates.setdefault(epoch, {})
        candidates[payload["candidate"]] = payload["last_applied"]
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
        self.scheduler.schedule(
            3 * self.config.election_window_ms,
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
        stale_origins = self._drop_stale_origins()
        self.become_leader(self.ensemble,
                           next_zxid=self.commit_log.last_applied + 1)
        self._election_candidates = {
            e: c for e, c in self._election_candidates.items() if e > epoch}
        for peer in self._peers:
            self.send(peer, "zk_new_leader",
                      {"leader": self.name, "epoch": epoch,
                       "last_applied": self.commit_log.last_applied},
                      size_bytes=self._ack_size)
        for txn in orphans:
            self._repropose(txn, stale_origins.get(txn.zxid))
        # Writes this server had forwarded to the dead leader restart here.
        pending = list(self._forwarded.values())
        self._forwarded.clear()
        for request in pending:
            self._propose(origin_server=self.name, request=request)

    def _repropose(self, txn: Transaction,
                   origin: Optional[Dict[str, Any]]) -> None:
        """Re-issue a dead-epoch transaction under this leadership.

        The operation, origin server, and origin request id are preserved so
        the origin can still answer its client; only the zxid (and epoch on
        the wire) change.
        """
        assert self.tracker is not None
        renumbered = txn._replace(zxid=self.tracker.next_zxid())
        if origin is not None:
            self._origin_requests[renumbered.zxid] = origin
        self._broadcast_proposal(renumbered)

    def on_zk_new_leader(self, message: Message) -> None:
        payload = message.payload
        if payload["epoch"] < self.epoch:
            return
        if payload["epoch"] == self.epoch \
                and payload["leader"] == self.leader_name:
            return  # duplicate announcement
        self._adopt_leader(payload["leader"], payload["epoch"])

    def _adopt_leader(self, leader: str, epoch: int) -> None:
        if leader == self.name:
            return
        prev_epoch = self.epoch
        self.epoch = epoch
        self.become_follower(leader, self.ensemble)
        self.commit_log.discard_uncommitted()
        self._drop_stale_origins()
        self._last_pong_ms = self.scheduler.now()
        self._announced_epoch = self.epoch
        self._election_candidates = {
            e: c for e, c in self._election_candidates.items() if e > epoch}
        # Catch up on transactions committed while this server was behind.
        # The pre-adoption epoch tells the leader whether a plain diff sync
        # is safe or whether this server needs a full snapshot (it may carry
        # applied state from a dead leadership).
        self.send(leader, "zk_sync_req",
                  {"server": self.name,
                   "last_applied": self.commit_log.last_applied,
                   "epoch": prev_epoch},
                  size_bytes=self._ack_size)
        # Writes forwarded to the dead leader are re-forwarded to the new one.
        for forward_id, request in list(self._forwarded.items()):
            forwarded_payload = dict(request["payload"])
            forwarded_payload["req_id"] = forward_id
            self.send(leader, "zk_forward",
                      {"origin": self.name, "payload": forwarded_payload},
                      size_bytes=self._txn_size)

    def _drop_stale_origins(self) -> Dict[int, Dict[str, Any]]:
        """Detach origin bookkeeping from zxids of abandoned proposals.

        Returns the detached entries keyed by their dead zxid (used by a
        promoting leader to re-attach them to re-proposed transactions) and
        stashes them by forward id in :attr:`_orphan_origins` so a follower
        can re-attach when the new leader's re-proposal arrives.  Entries
        never re-proposed are answered by the client's own timeout/retry
        (at-least-once), as with real ZooKeeper session recovery.
        """
        applied = self.commit_log.last_applied
        stale = {z: v for z, v in self._origin_requests.items() if z > applied}
        for entry in stale.values():
            forward_id = entry.get("origin_request")
            if forward_id is not None:
                self._orphan_origins[forward_id] = entry
        self._origin_requests = {z: v for z, v in self._origin_requests.items()
                                 if z <= applied}
        return stale

    def _send_leader_info(self, dst: str) -> None:
        if self.leader_name is None:
            return
        self.send(dst, "zk_leader_info",
                  {"leader": self.leader_name, "epoch": self.epoch},
                  size_bytes=self._ack_size)

    def on_zk_whois_leader(self, message: Message) -> None:
        self._send_leader_info(message.src)

    def on_zk_leader_info(self, message: Message) -> None:
        payload = message.payload
        if payload["epoch"] < self.epoch or payload["leader"] == self.name:
            return
        if payload["epoch"] == self.epoch and not self.is_leader \
                and payload["leader"] == self.leader_name:
            return  # nothing new
        self._adopt_leader(payload["leader"], payload["epoch"])

    def on_zk_sync_req(self, message: Message) -> None:
        payload = message.payload
        requester_epoch = payload.get("epoch", self.epoch)
        if requester_epoch < self.epoch \
                or payload["last_applied"] > self.commit_log.last_applied:
            # The requester slept through at least one election (or carries
            # applied state from a dead leadership whose zxids this epoch
            # recycled): a diff sync cannot reconcile it, send a snapshot.
            self._send_snapshot(message.src)
            self._retransmit_pending(message.src)
            return
        missing = [txn for txn in self.applied_log
                   if txn.zxid > payload["last_applied"]]
        if missing:
            self.syncs_served += 1
            self.send(message.src, "zk_sync",
                      {"epoch": self.epoch, "txns": missing},
                      size_bytes=(MESSAGE_HEADER_BYTES
                                  + len(missing) * (self.config.path_size_bytes
                                                    + self.config.element_size_bytes)))
        self._retransmit_pending(message.src)

    def _retransmit_pending(self, dst: str) -> None:
        """Re-send every uncommitted proposal of this leadership to ``dst``.

        A follower adopting a new leader mid-stream dropped (epoch-guarded)
        any proposals broadcast before it switched epochs; without
        retransmission those zxids could never reach quorum and every later
        transaction would stall behind them.
        """
        if not self.is_leader or self.tracker is None:
            return
        for txn in self.tracker.pending_transactions():
            self.send(dst, "zab_proposal", {"txn": txn, "epoch": self.epoch},
                      size_bytes=self._txn_size)

    def on_zk_sync(self, message: Message) -> None:
        for txn in message.payload["txns"]:
            if txn.zxid > self.commit_log.last_applied:
                self._apply_committed(txn)
                self.commit_log.last_applied = txn.zxid

    def _send_snapshot(self, dst: str) -> None:
        """Full state transfer (ZooKeeper's SNAP sync): tree + applied log."""
        self.snapshots_served += 1
        tree_snapshot = self.tree.snapshot()
        # The log goes as a tuple of the shared records: the receiver gets
        # the transactions, never this server's own (growing) list.
        log = tuple(self.applied_log)
        self.send(dst, "zk_snapshot",
                  {"epoch": self.epoch,
                   "leader": self.leader_name,
                   "last_applied": self.commit_log.last_applied,
                   "tree": tree_snapshot,
                   "log": log},
                  size_bytes=(MESSAGE_HEADER_BYTES
                              + estimate_payload_size(tree_snapshot)
                              + len(log) * self.config.path_size_bytes))

    def on_zk_snapshot(self, message: Message) -> None:
        payload = message.payload
        if payload["epoch"] < self.epoch:
            return  # stale snapshot from a deposed leadership
        self.snapshots_received += 1
        # Adopt the snapshot's leadership too: without this, a stale-epoch
        # receiver would install the state but keep epoch-guarding away all
        # current Zab traffic until a zk_leader_info happened by.
        if payload["epoch"] > self.epoch and payload.get("leader") \
                and payload["leader"] != self.name:
            self.epoch = payload["epoch"]
            self.become_follower(payload["leader"], self.ensemble)
            self._announced_epoch = self.epoch
            self._last_pong_ms = self.scheduler.now()
        self.tree.restore(payload["tree"])
        self.commit_log = CommitLog()
        self.commit_log.last_applied = payload["last_applied"]
        self.applied_log = list(payload["log"])
        # Any origin bookkeeping beyond the snapshot point refers to a dead
        # leadership; clients recover via their own timeout/retry.
        self._drop_stale_origins()

    def recover(self) -> None:
        super().recover()
        if not self._failure_detection:
            return
        # Rejoin: a deposed leader (or stale follower) finds out who leads
        # now and follows; peers answer with zk_leader_info.
        self._last_pong_ms = self.scheduler.now()
        for peer in self._peers:
            self.send(peer, "zk_whois_leader", {"server": self.name},
                      size_bytes=self._ack_size)
        # If leadership never moved, zk_leader_info brings nothing new, so a
        # recovering follower also asks its (still-current) leader directly
        # for the commits it slept through.
        if not self.is_leader and self.leader_name is not None:
            self.send(self.leader_name, "zk_sync_req",
                      {"server": self.name,
                       "last_applied": self.commit_log.last_applied,
                       "epoch": self.epoch},
                      size_bytes=self._ack_size)

    # -- client requests -------------------------------------------------------
    def on_zk_request(self, message: Message) -> None:
        self._enqueue(self.config.request_service_ms, self._handle_request,
                      (message.src, message.payload))

    def _handle_request(self, client: str, payload: Dict[str, Any]) -> None:
        op = payload["op"]
        if op in READ_OPS:
            self._serve_read(client, payload)
            return
        if op not in WRITE_OPS:
            self._respond(client, payload["req_id"], ok=False,
                          error=f"unknown operation {op!r}")
            return
        if payload.get("icg"):
            self._enqueue(self.config.simulation_service_ms,
                          self._send_preliminary, (client, payload))
        self._submit_write(client, payload)

    # -- local reads --------------------------------------------------------------
    def _serve_read(self, client: str, payload: Dict[str, Any]) -> None:
        self.reads_served += 1
        op = payload["op"]
        path = payload["path"]
        try:
            if op == "get":
                result = self.tree.get(path)
                size = self._reply_size
            elif op == "exists":
                result = self.tree.exists(path)
                size = self._ack_size
            else:  # get_children
                result = self.tree.get_children(path)
                size = (self._ack_size
                        + len(result) * self.config.child_name_bytes)
        except NoNodeError as exc:
            self._respond(client, payload["req_id"], ok=False,
                          error=f"NoNode: {exc}")
            return
        self._respond(client, payload["req_id"], ok=True, result=result,
                      size_bytes=size)

    # -- CZK preliminary (local simulation) -------------------------------------------
    def _send_preliminary(self, client: str, payload: Dict[str, Any]) -> None:
        result = self._simulate(payload)
        self.preliminaries_sent += 1
        self.send(client, "zk_preliminary",
                  {"req_id": payload["req_id"], "ok": True, "result": result},
                  size_bytes=self._reply_size)

    def _simulate(self, payload: Dict[str, Any]) -> Any:
        """Apply the operation to the local state *tentatively*."""
        op = payload["op"]
        path = payload["path"]
        if op == "enqueue" or (op == "create" and payload.get("sequential")):
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
        if op in ("create", "set"):
            return {"path": path}
        return None

    # -- write path ----------------------------------------------------------------------
    def _submit_write(self, client: str, payload: Dict[str, Any]) -> None:
        request = {"client": client, "payload": payload}
        if self.is_leader:
            self._propose(origin_server=self.name, request=request)
        else:
            forward_id = self._next_forward_id
            self._next_forward_id += 1
            forwarded_payload = dict(payload)
            forwarded_payload["req_id"] = forward_id
            self.send(self.leader_name, "zk_forward",
                      {"origin": self.name, "payload": forwarded_payload},
                      size_bytes=self._txn_size)
            self._forwarded[forward_id] = request

    def on_zk_forward(self, message: Message) -> None:
        payload = message.payload
        self._enqueue(self.config.proposal_service_ms, self._propose,
                      (payload["origin"],
                       {"client": None, "payload": payload["payload"]}))

    def _propose(self, origin_server: str, request: Dict[str, Any]) -> None:
        if not self.is_leader or self.tracker is None:
            # This server was deposed between receiving the request and
            # processing it: push the request to the current leader instead.
            if self.leader_name is None or self.leader_name == self.name:
                return
            if request["client"] is not None:
                self._submit_write(request["client"], request["payload"])
            else:
                self.send(self.leader_name, "zk_forward",
                          {"origin": origin_server,
                           "payload": request["payload"]},
                          size_bytes=self._txn_size)
            return
        payload = request["payload"]
        # Leader-origin requests get an origin id from the same per-server
        # counter as forwarded requests, so ``origin_request`` lives in one
        # namespace per origin server (client req_ids would collide with
        # forward ids when orphaned proposals are re-proposed).
        origin_request = payload["req_id"]
        if origin_server == self.name and request["client"] is not None:
            origin_request = self._next_forward_id
            self._next_forward_id += 1
        txn = Transaction(
            zxid=self.tracker.next_zxid(),
            op="create" if payload["op"] == "enqueue" else payload["op"],
            path=(payload["path"] + "/item-" if payload["op"] == "enqueue"
                  else payload["path"]),
            data=payload.get("data"),
            sequential=(payload["op"] == "enqueue"
                        or bool(payload.get("sequential"))),
            origin_server=origin_server,
            origin_request=origin_request,
        )
        if origin_server == self.name and request["client"] is not None:
            self._origin_requests[txn.zxid] = {
                "client": request["client"], "req_id": payload["req_id"],
                "op": payload["op"], "origin_request": origin_request,
            }
        self._broadcast_proposal(txn)

    def _broadcast_proposal(self, txn: Transaction) -> None:
        """Track ``txn``, propose it to every peer, and ack it locally.

        One payload, and inside it the one transaction record, serves all
        peers: nothing downstream mutates either.
        """
        tracker = self.tracker
        tracker.track(txn)
        self.commit_log.learn(txn)
        proposal = {"txn": txn, "epoch": self.epoch}
        for peer in self._peers:
            self.send(peer, "zab_proposal", proposal,
                      size_bytes=self._txn_size)
        # The leader acknowledges its own proposal.
        if tracker.record_ack(txn.zxid, self.name):
            self._commit(txn.zxid)

    def on_zab_proposal(self, message: Message) -> None:
        payload = message.payload
        epoch = payload.get("epoch", self.epoch)
        if epoch != self.epoch:
            if epoch < self.epoch:
                # A deposed-but-alive leader (e.g. it was partitioned away
                # while an election happened) is still proposing: tell it
                # who leads now so it demotes itself and re-syncs.
                self._send_leader_info(message.src)
            return
        self._enqueue(self.config.apply_service_ms, self._ack_proposal,
                      (payload,))

    def _ack_proposal(self, payload: Dict[str, Any]) -> None:
        txn = payload["txn"]
        self.commit_log.learn(txn)
        # A follower that originated this request must answer its client once
        # the commit applies locally.
        if txn.origin_server == self.name:
            forwarded = self._forwarded.pop(txn.origin_request, None)
            if forwarded is not None:
                self._origin_requests[txn.zxid] = {
                    "client": forwarded["client"],
                    "req_id": forwarded["payload"]["req_id"],
                    "op": forwarded["payload"]["op"],
                    "origin_request": txn.origin_request,
                }
            else:
                # The original proposal died with a deposed leader and this
                # is the new leader's re-proposal: re-attach the client.
                orphan = self._orphan_origins.pop(txn.origin_request, None)
                if orphan is not None:
                    self._origin_requests[txn.zxid] = orphan
        self.send(self.leader_name, "zab_ack",
                  {"zxid": txn.zxid, "server": self.name,
                   "epoch": payload.get("epoch", self.epoch)},
                  size_bytes=self._ack_size)

    def on_zab_ack(self, message: Message) -> None:
        payload = message.payload
        if not self.is_leader or self.tracker is None:
            return  # late ack for a proposal of a previous leadership
        if payload.get("epoch", self.epoch) != self.epoch:
            return
        if self.tracker.record_ack(payload["zxid"], payload["server"]):
            self._commit(payload["zxid"])

    def _commit(self, zxid: int) -> None:
        if not self.is_leader or self.tracker is None:
            return
        # Committed: nothing will retransmit or count acks for it again.
        self.tracker.forget(zxid)
        commit = {"zxid": zxid, "epoch": self.epoch}
        for peer in self._peers:
            self.send(peer, "zab_commit", commit, size_bytes=self._ack_size)
        self._learn_commit(zxid)

    def on_zab_commit(self, message: Message) -> None:
        if message.payload.get("epoch", self.epoch) != self.epoch:
            return
        self._enqueue(self.config.apply_service_ms, self._learn_commit,
                      (message.payload["zxid"],))

    def _learn_commit(self, zxid: int) -> None:
        self.commit_log.mark_committed(zxid)
        for txn in self.commit_log.ready_transactions():
            self._apply_committed(txn)

    # -- applying transactions -------------------------------------------------------------
    def _apply_committed(self, txn: Transaction) -> None:
        """Apply the next transaction of the log; answer its client if the
        request came in through this server."""
        result = self._apply(txn)
        self.transactions_applied += 1
        self.applied_log.append(txn)
        self._last_progress_ms = self.scheduler.clock._now
        origin = self._origin_requests.pop(txn.zxid, None)
        if origin is not None:
            self._respond(origin["client"], origin["req_id"],
                          ok=result.get("ok", True),
                          result=result.get("result"),
                          error=result.get("error"))

    def _apply(self, txn: Transaction) -> Dict[str, Any]:
        op = txn.op
        try:
            if op == "create":
                created = self.tree.create(txn.path, txn.data,
                                           sequential=txn.sequential)
                parent_path = txn.path.rsplit("/", 1)[0]
                pending = self._simulated_created.get(parent_path, 0)
                if pending > 0:
                    self._simulated_created[parent_path] = pending - 1
                position = self.tree.child_count(parent_path or "/") - 1
                return {"ok": True,
                        "result": {"path": created,
                                   "name": created.rsplit("/", 1)[1],
                                   "position": position}}
            if op == "delete":
                self.tree.delete(txn.path)
                self._simulated_removed.discard(txn.path)
                return {"ok": True, "result": {"deleted": txn.path}}
            if op == "set":
                self.tree.set(txn.path, txn.data)
                return {"ok": True, "result": {"path": txn.path}}
            if op == "dequeue":
                popped = self.tree.pop_first_child(txn.path)
                if popped is None:
                    return {"ok": True,
                            "result": {"item": None, "name": None,
                                       "remaining": 0}}
                head, data, remaining = popped
                self._simulated_removed.discard(f"{txn.path}/{head}")
                return {"ok": True,
                        "result": {"item": data, "name": head,
                                   "remaining": remaining}}
            return {"ok": False, "error": f"unknown txn op {op!r}"}
        except (NoNodeError, NodeExistsError, ValueError) as exc:
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}

    # -- responses ------------------------------------------------------------------------------
    def _respond(self, client: str, req_id: int, ok: bool,
                 result: Any = None, error: Optional[str] = None,
                 size_bytes: Optional[int] = None) -> None:
        if size_bytes is None:
            size_bytes = self._reply_size
        self.send(client, "zk_response",
                  {"req_id": req_id, "ok": ok, "result": result, "error": error},
                  size_bytes=size_bytes)
