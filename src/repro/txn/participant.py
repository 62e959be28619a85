"""Participant side of the two-phase commit protocol.

A :class:`TxnParticipant` is colocated with one storage replica.  It votes
on prepares (taking per-key locks, logging the prepared writes), applies
committed transactions into the replica's local table as ordinary LWW
versions, and answers takeover coordinators with its log state.

Prepares and decisions arrive, and votes and acks go back, as
:meth:`~repro.sim.network.Network.fused_send_to` continuations; the
takeover probe and its reply are control-plane hops
(:meth:`~repro.sim.node.Node._send_control`).

Epoch discipline: every coordinator request carries the sender's epoch.  A
participant tracks the highest epoch it has seen and rejects work from
older epochs, both when a request arrives and when its queued job is
served — which is what fences a deposed (or partitioned-away) coordinator
out of the protocol the moment its successor's takeover probe lands.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.cassandra_sim.replica import CassandraReplica
from repro.cassandra_sim.storage import VersionedValue
from repro.sim.network import Network
from repro.sim.node import Node
from repro.txn.config import TxnConfig
from repro.txn.coordinator import InFlightTxn
from repro.txn.log import ParticipantLog, TxnState


class TxnParticipant(Node):
    """One transaction participant, colocated with a storage replica."""

    def __init__(self, name: str, region: str, network: Network,
                 replica: CassandraReplica, config: TxnConfig) -> None:
        super().__init__(name, region, network, host=replica.host)
        self.replica = replica
        self.config = config
        self.log = ParticipantLog()
        #: key -> txn_id currently holding the prepare lock.
        self.locks: Dict[str, str] = {}
        #: Highest coordinator epoch observed.
        self.epoch = 0
        #: txn ids whose writes were applied to the replica table (audit).
        self.applied: set = set()
        # Instrumentation.
        self.votes_yes = 0
        self.votes_no = 0
        self.lock_conflicts = 0
        self.deadline_refusals = 0
        self.stale_epoch_rejections = 0
        self.commits_applied = 0
        self.aborts_logged = 0
        self.takeover_replies = 0

    def _stale(self, epoch: int) -> bool:
        """Whether work sent at ``epoch`` is fenced off (and counted so).

        Checked on arrival and again when the queued job is served: a
        successor's takeover probe may raise the epoch, and read the log,
        while the job waits in the queue."""
        if epoch < self.epoch:
            self.stale_epoch_rejections += 1
            return True
        return False

    # -- prepare phase (network continuation) --------------------------------
    def _txn_prepare(self, coordinator: Node, epoch: int,
                     request: InFlightTxn) -> None:
        if not self.alive:
            self.network.messages_dropped += 1
            return
        self.network.messages_delivered += 1
        if self._stale(epoch):
            return
        self.epoch = epoch
        self._enqueue(self.config.prepare_service_ms, self._handle_prepare,
                      (coordinator, epoch, request))

    def _handle_prepare(self, coordinator: Node, epoch: int,
                        request: InFlightTxn) -> None:
        if not self.alive or self._stale(epoch):
            return
        op = request.op
        txn_id = op.txn_id
        state = self.log.state(txn_id)
        if state == TxnState.COMMITTED:
            # Idempotent re-prepare of a decided transaction: the decision
            # already stands; re-ack it so the coordinator stops retrying.
            self._ack(coordinator, txn_id, True)
            return
        if state is not None:
            # Already prepared (vote yes again) or aborted (vote no again).
            self._vote(coordinator, txn_id, state == TxnState.PREPARED)
            return
        if self.scheduler.now() >= op.deadline_ms:
            self.deadline_refusals += 1
            self._vote(coordinator, txn_id, False)
            return
        writes = request.per_participant[self.name]
        if any(self.locks.get(key, txn_id) != txn_id for key in writes):
            self.lock_conflicts += 1
            self._vote(coordinator, txn_id, False)
            return
        for key in writes:
            self.locks[key] = txn_id
        self.log.record_prepared(txn_id, writes, request.participants,
                                 op.client)
        self._vote(coordinator, txn_id, True)

    def _vote(self, coordinator: Node, txn_id: str, yes: bool) -> None:
        if yes:
            self.votes_yes += 1
        else:
            self.votes_no += 1
        self.network.fused_send_to(self, coordinator.name, 64,
                                   coordinator._txn_vote,
                                   (txn_id, self.name, self.epoch, yes))

    # -- decision phase (network continuation) -------------------------------
    def _txn_decision(self, coordinator: Node, epoch: int, txn_id: str,
                      timestamp: Optional[Tuple[float, str, int]]) -> None:
        """A commit (``timestamp`` set) or an abort (``None``)."""
        if not self.alive:
            self.network.messages_dropped += 1
            return
        self.network.messages_delivered += 1
        if self._stale(epoch):
            return
        self.epoch = epoch
        if timestamp is None:
            self._enqueue(self.config.prepare_service_ms, self._handle_abort,
                          (coordinator, epoch, txn_id))
        else:
            self._enqueue(self.config.commit_service_ms, self._handle_commit,
                          (coordinator, epoch, txn_id, timestamp))

    def _handle_commit(self, coordinator: Node, epoch: int, txn_id: str,
                       timestamp: Tuple[float, str, int]) -> None:
        if not self.alive or self._stale(epoch):
            return
        record = self.log.get(txn_id)
        if record is None or record.state == TxnState.ABORTED:
            # A commit decision for a transaction with no local prepare can
            # only be a protocol violation upstream; drop it (never apply
            # writes that were not voted on) and let the audit catch it.
            return
        if record.state == TxnState.PREPARED:
            self.log.record_committed(txn_id, timestamp)
            for key, value in sorted(record.writes.items()):
                self.replica.table.apply(key, VersionedValue(value, timestamp))
            self.applied.add(txn_id)
            self.commits_applied += 1
            self._release_locks(txn_id)
        self._ack(coordinator, txn_id, True)

    def _handle_abort(self, coordinator: Node, epoch: int,
                      txn_id: str) -> None:
        if not self.alive or self._stale(epoch):
            return
        record = self.log.get(txn_id)
        if record is not None and record.state == TxnState.COMMITTED:
            # An abort can never override a commit; the coordinator group
            # guarantees it never issues one, so just re-ack the commit.
            self._ack(coordinator, txn_id, True)
            return
        if record is None or record.state != TxnState.ABORTED:
            self.log.record_aborted(txn_id)
            self.aborts_logged += 1
        self._release_locks(txn_id)
        self._ack(coordinator, txn_id, False)

    def _ack(self, coordinator: Node, txn_id: str, committed: bool) -> None:
        """Tell ``coordinator`` the decision is logged: committed or not."""
        self.network.fused_send_to(self, coordinator.name, 48,
                                   coordinator._txn_ack,
                                   (txn_id, self.name, committed))

    def _release_locks(self, txn_id: str) -> None:
        for key in [k for k, holder in self.locks.items() if holder == txn_id]:
            del self.locks[key]

    # -- takeover recovery --------------------------------------------------
    def _txn_takeover(self, coordinator: Node, epoch: int) -> None:
        """A successor coordinator announces its epoch and reads our log.

        Bumping the epoch *before* replying fences the deposed coordinator:
        its work still on the wire arrives with a stale epoch, and its work
        already waiting in this node's queue is served with one, so both
        are rejected and the state in the reply cannot be invalidated by
        old-epoch traffic.
        """
        if self._stale(epoch):
            return
        self.epoch = epoch
        self.takeover_replies += 1
        self._send_control(128 + 64 * len(self.log),
                           coordinator._txn_takeover_ack, self.name, epoch,
                           self.log.snapshot())

    # -- introspection ------------------------------------------------------
    def in_doubt_txns(self) -> list:
        return [record.txn_id for record in self.log.in_doubt()]
