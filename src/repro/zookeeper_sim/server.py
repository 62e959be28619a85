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

Failure detection and election are the server's
:class:`~repro.zookeeper_sim.zab.Election`; the leadership switch and the
catch-up are the server's own.  Quorum commit happens in one place:
:meth:`ZKServer._commit` at the leader, then
:meth:`ZKServer._learn_commit` at every server.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.sim.network import (MESSAGE_HEADER_BYTES, Network,
                               estimate_payload_size)
from repro.sim.node import Node
from repro.zookeeper_sim.config import (
    ACK_BYTES, APPLY_SERVICE_MS, CHILD_NAME_BYTES, ELEMENT_SIZE_BYTES,
    PATH_SIZE_BYTES, PROPOSAL_SERVICE_MS, REQUEST_SERVICE_MS,
    SIMULATION_SERVICE_MS, ZooKeeperConfig)
from repro.zookeeper_sim.datatree import DataTree, NoNodeError, NodeExistsError
from repro.zookeeper_sim.zab import (CommitLog, Election, ProposalTracker,
                                     Transaction)

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
        self.leader_node: Optional[ZKServer] = None
        self.peers: Tuple[ZKServer, ...] = ()
        # Wire sizes of the three message shapes.
        self._ack_size = MESSAGE_HEADER_BYTES + ACK_BYTES
        self._txn_size = (MESSAGE_HEADER_BYTES + PATH_SIZE_BYTES
                          + ELEMENT_SIZE_BYTES)
        self._reply_size = self._ack_size + ELEMENT_SIZE_BYTES
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
        self.epoch = 0
        self.applied_log: List[Transaction] = []
        #: Last time a transaction applied locally (stall detection).
        self.last_progress_ms = 0.0
        #: Origin bookkeeping for requests whose proposal died with a deposed
        #: leader: origin request id -> (operation, time stashed).  Re-attached
        #: when the transaction is re-proposed (same ``origin_request``),
        #: dropped by the heartbeat tick once the client has given up.
        self.orphan_origins: Dict[int, Tuple[ZkOp, float]] = {}
        # Instrumentation.
        self.preliminaries_sent = 0
        self.transactions_applied = 0
        self.reads_served = 0
        self.promotions = 0
        self.syncs_served = 0
        self.snapshots_served = 0
        self.snapshots_received = 0
        self.election = Election(self)

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
        self.leader_node = node(leader_name)
        self.peers = tuple(node(n) for n in ensemble if n != self.name)

    @property
    def elections_started(self) -> int:
        return self.election.started

    # -- client requests -------------------------------------------------------
    def _zk_request(self, op: ZkOp) -> None:
        if not self.alive:
            self.network.messages_dropped += 1
            return
        self.network.messages_delivered += 1
        self._enqueue(REQUEST_SERVICE_MS, self._handle_request, (op,))

    def _handle_request(self, op: ZkOp) -> None:
        kind = op.op
        if kind in READ_OPS:
            self._serve_read(op)
            return
        if kind not in WRITE_OPS:
            self._respond(op, ok=False, error=f"unknown operation {kind!r}")
            return
        if op.icg:
            self._enqueue(SIMULATION_SERVICE_MS, self._send_preliminary,
                          (op,))
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
                size = self._ack_size + len(result) * CHILD_NAME_BYTES
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
        self._enqueue(PROPOSAL_SERVICE_MS, self._propose,
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
            leader = self.leader_node
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
        for peer in self.peers:
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
                self.election.send_leader_info(leader)
            return
        self._enqueue(APPLY_SERVICE_MS, self._ack_proposal, (txn, epoch))

    def _ack_proposal(self, txn: Transaction, epoch: int) -> None:
        if epoch != self.epoch:
            return  # queued under an epoch that has since been left
        self.commit_log.learn(txn)
        # The follower that forwarded this request answers its client once
        # the commit applies locally.
        if txn.origin_server == self.name:
            op = self._forwarded.pop(txn.origin_request, None)
            if op is not None:
                self._origin_requests[txn.zxid] = (op, txn.origin_request)
            else:  # the new leader's re-proposal of a dead one
                self._reattach_origin(txn)
        leader = self.leader_node
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
        for peer in self.peers:
            send(self, peer.name, self._ack_size, peer._zab_commit, commit)
        self._learn_commit(zxid, self.epoch)

    def _zab_commit(self, zxid: int, epoch: int) -> None:
        if not self.alive:
            self.network.messages_dropped += 1
            return
        self.network.messages_delivered += 1
        if epoch == self.epoch:
            self._enqueue(APPLY_SERVICE_MS, self._learn_commit,
                          (zxid, epoch))

    def _learn_commit(self, zxid: int, epoch: int) -> None:
        if epoch != self.epoch:
            return  # queued under an epoch that has since been left
        for txn in self.commit_log.commit(zxid):
            self._apply_committed(txn)

    # -- applying transactions -------------------------------------------------------------
    def _apply_committed(self, txn: Transaction) -> None:
        """Apply the next transaction of the log; answer its client if the
        request came in through this server."""
        origin = self._origin_requests.pop(txn.zxid, None)
        self.transactions_applied += 1
        self.applied_log.append(txn)
        self.last_progress_ms = self.scheduler.clock._now
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

    # -- leadership switches: what an election decides ----------------------------
    def promote(self, epoch: int) -> None:
        """Lead ``epoch``: re-propose the dead epoch's uncommitted proposals
        with fresh zxids from ``last_applied`` on (the sequence stays
        gapless), and the writes forwarded to the dead leader."""
        self.epoch = epoch
        self.promotions += 1
        orphans = self.commit_log.uncommitted_transactions()
        self.commit_log.discard_uncommitted()
        self._drop_stale_origins()
        self.become_leader(self.ensemble,
                           next_zxid=self.commit_log.last_applied + 1)
        self.election.settled(epoch)
        for peer in self.peers:
            self.election.send_leader_info(peer)
        for txn in orphans:
            renumbered = txn._replace(zxid=self.tracker.next_zxid())
            if txn.origin_server == self.name:
                self._reattach_origin(renumbered)
            self._broadcast_proposal(renumbered)
        pending = list(self._forwarded.values())
        self._forwarded.clear()
        for op in pending:
            self._propose(self.name, op, None)

    def follow(self, leader: str, epoch: int) -> None:
        """Follow ``leader`` (never this server) from ``epoch`` on: catch up
        since the epoch last followed, re-forward the writes in flight."""
        prev_epoch = self.epoch
        self._switch_leader(leader, epoch)
        self.commit_log.discard_uncommitted()
        self._drop_stale_origins()
        self.request_sync(prev_epoch)
        for forward_id, op in self._forwarded.items():
            self.network.fused_send_to(self, leader, self._txn_size,
                                       self.leader_node._zk_forward,
                                       (self.name, forward_id, op))

    def _switch_leader(self, leader: str, epoch: int) -> None:
        self.epoch = epoch
        self.become_follower(leader, self.ensemble)
        self.election.settled(epoch)

    def _reattach_origin(self, txn: Transaction) -> None:
        """``txn`` re-proposes a request stashed by
        :meth:`_drop_stale_origins`: answer its client after all."""
        orphan = self.orphan_origins.pop(txn.origin_request, None)
        if orphan is not None:
            self._origin_requests[txn.zxid] = (orphan[0], txn.origin_request)

    def _drop_stale_origins(self) -> None:
        """Stash the origins of abandoned proposals by origin request id; one
        never re-proposed is the client's to retry (at-least-once)."""
        applied = self.commit_log.last_applied
        now = self.scheduler.now()
        for zxid in [z for z in self._origin_requests if z > applied]:
            op, origin_request = self._origin_requests.pop(zxid)
            self.orphan_origins[origin_request] = (op, now)

    def expire_orphan_origins(self) -> None:
        """Forget stashed origins whose client cannot be waiting any more
        (with client timeouts off it still is); run by the election's tick."""
        if self._client_patience_ms > 0:
            cutoff = self.scheduler.now() - self._client_patience_ms
            self.orphan_origins = {
                request: entry for request, entry
                in self.orphan_origins.items() if entry[1] > cutoff}

    # -- catching up: diff sync or snapshot -----------------------------------------
    def request_sync(self, epoch: int) -> None:
        """Ask the leader for what this server missed since ``epoch``."""
        leader = self.leader_node
        self._send_control(self._ack_size, leader, leader._zk_sync_req, self,
                           self.commit_log.last_applied, epoch)

    def _zk_sync_req(self, follower: ZKServer, last_applied: int,
                     epoch: int) -> None:
        missing = self.commit_log.sync_for(self.applied_log, last_applied,
                                           epoch < self.epoch)
        if missing is None:
            self._send_snapshot(follower)
        elif missing:
            self.syncs_served += 1
            self._send_control(
                MESSAGE_HEADER_BYTES + len(missing) * (
                    PATH_SIZE_BYTES + ELEMENT_SIZE_BYTES),
                follower, follower._zk_sync, missing)
        # A follower that switched epochs mid-stream dropped what was
        # proposed before: re-send it, or those zxids never reach quorum.
        if self.is_leader and self.tracker is not None:
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
        """ZooKeeper's SNAP sync: the tree, and the log's shared records."""
        self.snapshots_served += 1
        tree_snapshot = self.tree.snapshot()
        log = tuple(self.applied_log)
        self._send_control(
            MESSAGE_HEADER_BYTES + estimate_payload_size(tree_snapshot)
            + len(log) * PATH_SIZE_BYTES,
            dst, dst._zk_snapshot, self.epoch, self.leader_name,
            self.commit_log.last_applied, tree_snapshot, log)

    def _zk_snapshot(self, epoch: int, leader: str, last_applied: int,
                     tree: Any, log: Tuple[Transaction, ...]) -> None:
        if epoch < self.epoch:
            return  # stale snapshot from a deposed leadership
        self.snapshots_received += 1
        # Adopt its leadership too, or the current Zab traffic would stay
        # epoch-guarded away until a leader-info hop happened by.
        if epoch > self.epoch and leader != self.name:
            self._switch_leader(leader, epoch)
        self.tree.restore(tree)
        self.commit_log = CommitLog(last_applied)
        self.applied_log = list(log)
        self._drop_stale_origins()

    def recover(self) -> None:
        super().recover()
        self.election.rejoin()
