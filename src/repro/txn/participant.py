"""Participant side of the two-phase commit protocol.

A :class:`TxnParticipant` is colocated with one storage replica.  It votes
on prepares (taking per-key locks, logging the prepared writes), applies
committed transactions into the replica's local table as ordinary LWW
versions, and answers takeover coordinators with its log state.

Epoch discipline: every coordinator message carries the sender's epoch.  A
participant tracks the highest epoch it has seen and rejects messages from
older epochs — which is what fences a deposed (or partitioned-away)
coordinator out of the protocol the moment its successor's takeover probe
lands.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.cassandra_sim.replica import CassandraReplica
from repro.cassandra_sim.versions import VersionedValue
from repro.core.retry import Deadline
from repro.sim.network import Message, Network
from repro.sim.node import Node
from repro.txn.config import TxnConfig
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

    # -- prepare phase ------------------------------------------------------
    def on_txn_prepare(self, message: Message) -> None:
        payload = message.payload
        if payload["epoch"] < self.epoch:
            self.stale_epoch_rejections += 1
            return
        self.epoch = payload["epoch"]
        self._enqueue(self.config.prepare_service_ms, self._handle_prepare,
                      (message.src, payload))

    def _handle_prepare(self, coordinator: str, payload: Dict[str, Any]) -> None:
        if not self.alive:
            return
        txn_id = payload["txn_id"]
        state = self.log.state(txn_id)
        if state == TxnState.COMMITTED:
            # Idempotent re-prepare of a decided transaction: the decision
            # already stands; re-ack it so the coordinator stops retrying.
            self._send_commit_ack(coordinator, txn_id)
            return
        if state == TxnState.ABORTED:
            self._vote(coordinator, payload, False, "aborted")
            return
        if state == TxnState.PREPARED:
            self._vote(coordinator, payload, True, "prepared")
            return
        deadline = Deadline(payload.get("deadline_ms", float("inf")))
        if deadline.expired(self.scheduler.now()):
            self.deadline_refusals += 1
            self._vote(coordinator, payload, False, "deadline")
            return
        writes = payload["writes"]
        holder = next((self.locks[key] for key in writes
                       if self.locks.get(key, txn_id) != txn_id), None)
        if holder is not None:
            self.lock_conflicts += 1
            self._vote(coordinator, payload, False, "conflict")
            return
        for key in writes:
            self.locks[key] = txn_id
        self.log.record_prepared(txn_id, writes,
                                 tuple(payload["participants"]),
                                 payload["client"], payload["epoch"],
                                 self.scheduler.now())
        self._vote(coordinator, payload, True, "ok")

    def _vote(self, coordinator: str, payload: Dict[str, Any],
              yes: bool, reason: str) -> None:
        if yes:
            self.votes_yes += 1
        else:
            self.votes_no += 1
        self.send(coordinator, "txn_vote", {
            "txn_id": payload["txn_id"],
            "participant": self.name,
            "epoch": self.epoch,
            "vote": yes,
            "reason": reason,
        }, size_bytes=64)

    # -- decision phase -----------------------------------------------------
    def on_txn_commit(self, message: Message) -> None:
        payload = message.payload
        if payload["epoch"] < self.epoch:
            self.stale_epoch_rejections += 1
            return
        self.epoch = payload["epoch"]
        self._enqueue(self.config.commit_service_ms, self._handle_commit,
                      (message.src, payload))

    def _handle_commit(self, coordinator: str, payload: Dict[str, Any]) -> None:
        if not self.alive:
            return
        txn_id = payload["txn_id"]
        record = self.log.get(txn_id)
        if record is None or record.state == TxnState.ABORTED:
            # A commit decision for a transaction with no local prepare can
            # only be a protocol violation upstream; drop it (never apply
            # writes that were not voted on) and let the audit catch it.
            return
        timestamp = tuple(payload["timestamp"])
        if record.state == TxnState.PREPARED:
            self.log.record_committed(txn_id, timestamp, self.scheduler.now())
            for key, value in sorted(record.writes.items()):
                self.replica.table.apply(key, VersionedValue(value, timestamp))
            self.applied.add(txn_id)
            self.commits_applied += 1
            self._release_locks(txn_id)
        self._send_commit_ack(coordinator, txn_id)

    def _send_commit_ack(self, coordinator: str, txn_id: str) -> None:
        self.send(coordinator, "txn_commit_ack",
                  {"txn_id": txn_id, "participant": self.name,
                   "epoch": self.epoch}, size_bytes=48)

    def on_txn_abort(self, message: Message) -> None:
        payload = message.payload
        if payload["epoch"] < self.epoch:
            self.stale_epoch_rejections += 1
            return
        self.epoch = payload["epoch"]
        self._enqueue(self.config.prepare_service_ms, self._handle_abort,
                      (message.src, payload))

    def _handle_abort(self, coordinator: str, payload: Dict[str, Any]) -> None:
        if not self.alive:
            return
        txn_id = payload["txn_id"]
        record = self.log.get(txn_id)
        if record is not None and record.state == TxnState.COMMITTED:
            # An abort can never override a commit; the coordinator group
            # guarantees it never issues one, so just re-ack the commit.
            self._send_commit_ack(coordinator, txn_id)
            return
        if record is None or record.state != TxnState.ABORTED:
            self.log.record_aborted(txn_id, self.scheduler.now())
            self.aborts_logged += 1
        self._release_locks(txn_id)
        self.send(coordinator, "txn_abort_ack",
                  {"txn_id": txn_id, "participant": self.name,
                   "epoch": self.epoch}, size_bytes=48)

    def _release_locks(self, txn_id: str) -> None:
        for key in [k for k, holder in self.locks.items() if holder == txn_id]:
            del self.locks[key]

    # -- takeover recovery --------------------------------------------------
    def on_txn_takeover(self, message: Message) -> None:
        """A successor coordinator announces its epoch and reads our log.

        Bumping the epoch *before* replying is the linchpin: any message the
        deposed coordinator still has in flight arrives with a stale epoch
        and is rejected, so the state in the reply cannot be invalidated by
        old-epoch traffic.
        """
        payload = message.payload
        if payload["epoch"] < self.epoch:
            self.stale_epoch_rejections += 1
            return
        self.epoch = payload["epoch"]
        self.takeover_replies += 1
        self.send(message.src, "txn_takeover_ack", {
            "participant": self.name,
            "epoch": self.epoch,
            "records": self.log.snapshot_payload(),
        }, size_bytes=128 + 64 * len(self.log))

    # -- introspection ------------------------------------------------------
    def in_doubt_txns(self) -> list:
        return [record.txn_id for record in self.log.in_doubt()]
