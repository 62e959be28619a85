"""Two-phase commit coordinator with deterministic election and failover.

A coordinator group is an ordered list of :class:`TwoPhaseCommitCoordinator`
nodes.  The first starts *active*; the rest are standbys that watch its
heartbeats.  When the active coordinator goes silent, standbys take over in
list order (standby rank ``r`` waits ``(1 + r)`` detection timeouts, so the
first surviving standby always wins and the election is deterministic).

A successor recovers by *fencing then reading*: it bumps the group epoch,
probes every participant with ``_txn_takeover`` (which both installs the new
epoch — rejecting any in-flight old-epoch traffic — and returns the
participant's log), and drives every in-flight transaction to a consistent
outcome:

* any participant holds a **commit** record → the transaction was decided
  (and possibly acked to the client); re-drive the commit with the original
  timestamp to every participant;
* a transaction only **prepared** everywhere it is known → abort, but only
  after *every* participant of that transaction has answered a probe (the
  classic blocking rule: a silent participant might hold the one commit
  record that proves the old coordinator acked the client).

The coordinator acks a commit to the client only after the first
participant's commit ack — i.e. only once at least one durable commit
record exists — which is the invariant that makes "no lost acked commits"
hold through a mid-commit crash.

Every hop is a :meth:`~repro.sim.network.Network.fused_send_to`
continuation on the receiving node, starting with the manager's
:class:`~repro.txn.manager.TxnOp` in :meth:`_txn_begin`; the control
plane — heartbeats (:meth:`_coord_heartbeat`) and the takeover probe and
reply — goes through :meth:`~repro.sim.node.Node._send_control`, no
``Message`` anywhere.

In-memory coordinator state (``in_flight``, ``decided``, delivery
bookkeeping) is volatile: :meth:`recover` clears it, modelling a restart
from nothing but the participants' logs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.sim.network import MESSAGE_HEADER_BYTES, Network
from repro.sim.node import Node
from repro.txn.config import TxnConfig
from repro.txn.log import TxnLogRecord, TxnState
from repro.txn.manager import TxnOp

#: ``owners_of(key) -> participant names`` — the routing oracle the fabric
#: builds from the cluster's partitioner.
OwnersFn = Callable[[str], Sequence[str]]

COMMIT = "commit"
ABORT = "abort"


@dataclass
class InFlightTxn:
    """Coordinator-side state of one transaction between begin and decision.

    It is also the prepare request: sent by reference to every participant,
    which reads ``op``, ``participants`` and its own ``per_participant``
    writes, all fixed at begin."""

    op: TxnOp
    participants: Tuple[str, ...]
    per_participant: Dict[str, Dict[str, Any]]
    votes: Dict[str, bool] = field(default_factory=dict)
    timeout_event: Optional[Any] = None
    prepared_notice_sent: bool = False


@dataclass
class _Delivery:
    """Decision redelivery state: who still owes an ack."""

    txn_id: str
    outcome: str
    timestamp: Optional[Tuple[float, str, int]]
    unacked: Set[str]
    client: str
    client_acked: bool = False


class TwoPhaseCommitCoordinator(Node):
    """One member of the coordinator group (active or standby)."""

    def __init__(self, name: str, region: str, network: Network,
                 config: TxnConfig, index: int, peers: Sequence[str],
                 participants: Sequence[str], owners_of: OwnersFn) -> None:
        super().__init__(name, region, network)
        self.config = config
        self.index = index
        self.peers: Tuple[str, ...] = tuple(peers)
        self.participants: Tuple[str, ...] = tuple(sorted(participants))
        self.owners_of = owners_of
        # Group membership/epoch knowledge.
        self.active = index == 0
        self.epoch = 1
        self.known_epoch = 1
        self.active_name = self.peers[0] if self.peers else name
        self._last_heard_ms = 0.0
        # Volatile transaction state (cleared on crash recovery).
        self.in_flight: Dict[str, InFlightTxn] = {}
        self.decided: Dict[str, Tuple[str, Optional[Tuple[float, str, int]]]] = {}
        self._deliveries: Dict[str, _Delivery] = {}
        self._seq = itertools.count(1)
        # Takeover recovery state.
        self.recovering = False
        self._takeover_pending: Set[str] = set()
        self._takeover_replied: Set[str] = set()
        self._in_doubt: Dict[str, TxnLogRecord] = {}
        self.recovery_started_ms: Optional[float] = None
        self.recovery_completed_ms: Optional[float] = None
        # Instrumentation.
        self.txns_started = 0
        self.commits = 0
        self.aborts = 0
        self.prepare_timeouts = 0
        self.takeovers = 0
        self.redirects = 0
        self.decision_redeliveries = 0
        self.heartbeats_sent = 0
        # Timer management.
        self._hb_armed = False
        self._retry_armed = False
        self._probe_armed = False
        if config.heartbeat_interval_ms > 0:
            self._arm_heartbeat()

    # -- lifecycle -----------------------------------------------------------
    def recover(self) -> None:
        """Restart after a crash: volatile state is gone, rejoin as standby."""
        super().recover()
        self._deactivate()
        self.decided.clear()
        self._takeover_replied.clear()
        self._in_doubt.clear()
        # Grace period: trust whoever is active now until proven silent.
        self._last_heard_ms = self.scheduler.now()
        if self.config.heartbeat_interval_ms > 0 and not self._hb_armed:
            self._arm_heartbeat()

    def _not_current(self, epoch: int) -> bool:
        """Whether a participant's reply at ``epoch`` is not for this node
        as the active coordinator; a higher epoch deposes it."""
        if epoch > self.epoch and self.active:
            self._deactivate()
        return not self.active or epoch != self.epoch

    def _deactivate(self) -> None:
        """A higher epoch exists (or a restart wiped everything): stop
        acting as the active coordinator."""
        self.active = False
        self.recovering = False
        for state in self.in_flight.values():
            if state.timeout_event is not None:
                state.timeout_event.cancel()
        self.in_flight.clear()
        self._deliveries.clear()
        self._takeover_pending.clear()

    # -- heartbeats & election ----------------------------------------------
    def _arm_heartbeat(self) -> None:
        self._hb_armed = True
        self.scheduler.schedule(self.config.heartbeat_interval_ms,
                                self._heartbeat_tick)

    def _heartbeat_tick(self) -> None:
        if not self.alive:
            self._hb_armed = False
            return
        if self.active:
            self._broadcast_heartbeat()
        else:
            self._check_active_liveness()
        self.scheduler.schedule(self.config.heartbeat_interval_ms,
                                self._heartbeat_tick)

    def _broadcast_heartbeat(self) -> None:
        node = self.network.node
        for peer in self.peers:
            if peer != self.name:
                self._send_control(MESSAGE_HEADER_BYTES + 16,
                                   node(peer)._coord_heartbeat, self.name,
                                   self.epoch)
        self.heartbeats_sent += 1

    def _coord_heartbeat(self, name: str, epoch: int) -> None:
        if epoch < self.known_epoch:
            return
        if epoch > self.known_epoch or not self.active:
            if self.active and epoch > self.epoch:
                self._deactivate()
            self.known_epoch = epoch
            self.active_name = name
        self._last_heard_ms = self.scheduler.now()

    def _standby_rank(self) -> int:
        """Position among the standbys, in group order (0 = next in line)."""
        rank = 0
        for peer in self.peers:
            if peer == self.name:
                return rank
            if peer != self.active_name:
                rank += 1
        return rank

    def _check_active_liveness(self) -> None:
        silence = self.scheduler.now() - self._last_heard_ms
        threshold = self.config.coordinator_timeout_ms * (1 + self._standby_rank())
        if silence > threshold:
            self._take_over()

    def _take_over(self) -> None:
        """Become active: fence the old epoch and recover from participant logs."""
        self.active = True
        self.epoch = self.known_epoch + 1
        self.known_epoch = self.epoch
        self.active_name = self.name
        self.takeovers += 1
        self.recovering = True
        self.recovery_started_ms = self.scheduler.now()
        self.recovery_completed_ms = None
        self._takeover_pending = set(self.participants)
        self._takeover_replied = set()
        self._in_doubt = {}
        self._broadcast_heartbeat()
        for participant in self.participants:
            self._send_takeover_probe(participant)
        if not self._probe_armed:
            self._probe_armed = True
            self.scheduler.schedule(self.config.takeover_probe_ms,
                                    self._probe_tick)
        if not self._takeover_pending:
            self._finish_recovery_if_done()

    def _send_takeover_probe(self, participant: str) -> None:
        self._send_control(MESSAGE_HEADER_BYTES + 16,
                           self.network.node(participant)._txn_takeover,
                           self, self.epoch)

    def _probe_tick(self) -> None:
        if not self.alive or not self.active or not self.recovering:
            self._probe_armed = False
            return
        for participant in sorted(self._takeover_pending):
            self._send_takeover_probe(participant)
        self.scheduler.schedule(self.config.takeover_probe_ms,
                                self._probe_tick)

    def _txn_takeover_ack(self, participant: str, epoch: int,
                          records: List[TxnLogRecord]) -> None:
        if self._not_current(epoch) or not self.recovering:
            return
        self._takeover_pending.discard(participant)
        self._takeover_replied.add(participant)
        for record in records:
            self._merge_recovered_record(record)
        self._resolve_in_doubt()

    def _merge_recovered_record(self, record: TxnLogRecord) -> None:
        txn_id = record.txn_id
        if record.state == TxnState.COMMITTED:
            self.decided[txn_id] = (COMMIT, record.timestamp)
            self._in_doubt.pop(txn_id, None)
            self._ensure_recovery_delivery(record)
        elif record.state == TxnState.ABORTED:
            self.decided.setdefault(txn_id, (ABORT, None))
            self._in_doubt.pop(txn_id, None)
            if record.participants:
                self._ensure_recovery_delivery(record)
        elif txn_id in self.decided:
            # Prepared here, but the outcome is already known from another
            # participant's record: make sure this participant gets it.
            self._ensure_recovery_delivery(record)
        else:
            self._in_doubt[txn_id] = record

    def _ensure_recovery_delivery(self, record: TxnLogRecord) -> None:
        """Re-drive a recovered decision to the transaction's participants."""
        outcome, timestamp = self.decided[record.txn_id]
        self._start_delivery(record.txn_id, outcome, timestamp,
                             record.participants, record.client)

    def _resolve_in_doubt(self) -> None:
        for txn_id in sorted(self._in_doubt):
            record = self._in_doubt[txn_id]
            decided = self.decided.get(txn_id)
            if decided is not None:
                outcome, timestamp = decided
            elif set(record.participants) <= self._takeover_replied:
                # Every participant answered and none holds a commit record:
                # the old coordinator cannot have acked this transaction
                # (acks require a durable commit record), so presumed abort
                # is safe.  Until then the transaction blocks — a silent
                # participant may hold the proving record.
                outcome, timestamp = ABORT, None
                self.decided[txn_id] = (ABORT, None)
                self.aborts += 1
            else:
                continue
            del self._in_doubt[txn_id]
            self._start_delivery(txn_id, outcome, timestamp,
                                 record.participants, record.client)
        self._finish_recovery_if_done()

    def _finish_recovery_if_done(self) -> None:
        if self.recovering and not self._takeover_pending \
                and not self._in_doubt:
            self.recovering = False
            self.recovery_completed_ms = self.scheduler.now()

    # -- transaction intake (network continuations) ---------------------------
    def _txn_begin(self, op: TxnOp) -> None:
        if not self.alive:
            self.network.messages_dropped += 1
            return
        self.network.messages_delivered += 1
        txn_id = op.txn_id
        if not self.active:
            self.redirects += 1
            self.network.fused_send_to(
                self, op.client, MESSAGE_HEADER_BYTES + 32,
                self.network.node(op.client)._txn_redirect,
                (txn_id, self.active_name))
            return
        decided = self.decided.get(txn_id)
        if decided is not None:
            self._send_client_final(op.client, txn_id, *decided)
            return
        if txn_id in self.in_flight or txn_id in self._in_doubt:
            # Duplicate submission of a transaction still being worked on:
            # let it run (the reply-to is the transaction's own manager).
            return
        writes = op.writes
        per_participant: Dict[str, Dict[str, Any]] = {}
        for key in sorted(writes):
            for owner in self.owners_of(key):
                per_participant.setdefault(owner, {})[key] = writes[key]
        self.in_flight[txn_id] = InFlightTxn(
            op, tuple(sorted(per_participant)), per_participant)
        self.txns_started += 1
        self._enqueue(self.config.coordinator_service_ms,
                      self._send_prepares, (txn_id,))

    def _send_prepares(self, txn_id: str) -> None:
        if not self.alive or not self.active:
            return
        state = self.in_flight.get(txn_id)
        if state is None:
            return
        write_bytes = self.config.key_size_bytes + self.config.value_size_bytes
        for participant in state.participants:
            writes = state.per_participant[participant]
            self.network.fused_send_to(
                self, participant,
                MESSAGE_HEADER_BYTES + len(writes) * write_bytes,
                self.network.node(participant)._txn_prepare,
                (self, self.epoch, state))
        now = self.scheduler.now()
        timeout = min(self.config.prepare_timeout_ms,
                      max(0.0, state.op.deadline_ms - now))
        state.timeout_event = self.scheduler.schedule(
            timeout, self._on_prepare_timeout, txn_id)

    def _on_prepare_timeout(self, txn_id: str) -> None:
        if not self.alive or not self.active:
            return
        state = self.in_flight.get(txn_id)
        if state is None:
            return
        state.timeout_event = None
        self.prepare_timeouts += 1
        self._decide(txn_id, ABORT)

    # -- votes & decision ----------------------------------------------------
    def _txn_vote(self, txn_id: str, participant: str, epoch: int,
                  yes: bool) -> None:
        if not self.alive:
            self.network.messages_dropped += 1
            return
        self.network.messages_delivered += 1
        if self._not_current(epoch):
            return
        state = self.in_flight.get(txn_id)
        if state is None:
            return
        state.votes[participant] = yes
        if not yes:
            self._decide(txn_id, ABORT)
            return
        if all(state.votes.get(p) for p in state.participants):
            # Every participant voted yes: emit the speculative PREPARED
            # view immediately, then make the decision durable (a crash in
            # that window is what invalidates the speculation).
            if not state.prepared_notice_sent:
                state.prepared_notice_sent = True
                self.network.fused_send_to(
                    self, state.op.client, MESSAGE_HEADER_BYTES + 16,
                    self.network.node(state.op.client)._txn_prepared,
                    (txn_id,))
                self._enqueue(self.config.decision_log_ms,
                              self._finalize_commit, (txn_id,))

    def _finalize_commit(self, txn_id: str) -> None:
        if not self.alive or not self.active or txn_id not in self.in_flight:
            return
        timestamp = (self.scheduler.now(), self.name, next(self._seq))
        self._decide(txn_id, COMMIT, timestamp)

    def _decide(self, txn_id: str, outcome: str,
                timestamp: Optional[Tuple[float, str, int]] = None) -> None:
        state = self.in_flight.pop(txn_id)
        if state.timeout_event is not None:
            state.timeout_event.cancel()
        self.decided[txn_id] = (outcome, timestamp)
        if outcome == COMMIT:
            self.commits += 1
        else:
            self.aborts += 1
        self._start_delivery(txn_id, outcome, timestamp, state.participants,
                             state.op.client)

    def _start_delivery(self, txn_id: str, outcome: str,
                        timestamp: Optional[Tuple[float, str, int]],
                        participants: Sequence[str], client: str) -> None:
        existing = self._deliveries.get(txn_id)
        if existing is not None:
            # Widen an in-progress delivery (recovery can learn membership
            # incrementally); re-acks from already-settled participants are
            # idempotent.
            existing.unacked |= set(participants)
            self._send_decision(existing)
            return
        delivery = _Delivery(txn_id=txn_id, outcome=outcome,
                             timestamp=timestamp,
                             unacked=set(participants), client=client)
        if outcome == ABORT:
            # Aborts carry no durability requirement: tell the client now.
            if client:
                self._send_client_final(client, txn_id, ABORT, None)
            delivery.client_acked = True
        self._deliveries[txn_id] = delivery
        self._send_decision(delivery)
        if not self._retry_armed:
            self._retry_armed = True
            self.scheduler.schedule(self.config.decision_retry_ms,
                                    self._decision_retry_tick)

    def _send_decision(self, delivery: _Delivery) -> None:
        """Send the decision to every participant that still owes an ack;
        a commit carries its timestamp, an abort none."""
        for participant in sorted(delivery.unacked):
            self.network.fused_send_to(
                self, participant, MESSAGE_HEADER_BYTES + 48,
                self.network.node(participant)._txn_decision,
                (self, self.epoch, delivery.txn_id, delivery.timestamp))

    def _decision_retry_tick(self) -> None:
        if not self.alive or not self.active or not self._deliveries:
            self._retry_armed = False
            return
        for txn_id in sorted(self._deliveries):
            delivery = self._deliveries[txn_id]
            if delivery.unacked:
                self.decision_redeliveries += 1
                self._send_decision(delivery)
        self.scheduler.schedule(self.config.decision_retry_ms,
                                self._decision_retry_tick)

    def _txn_ack(self, txn_id: str, participant: str,
                 committed: bool) -> None:
        """A participant applied (``committed``) or logged the decision."""
        if not self.alive:
            self.network.messages_dropped += 1
            return
        self.network.messages_delivered += 1
        delivery = self._deliveries.get(txn_id)
        if delivery is None:
            return
        delivery.unacked.discard(participant)
        if committed and delivery.outcome == COMMIT \
                and not delivery.client_acked:
            # First durable commit record in place: the outcome can no
            # longer be lost, so the client may be told it committed.
            delivery.client_acked = True
            if delivery.client:
                self._send_client_final(delivery.client, txn_id, COMMIT,
                                        delivery.timestamp)
        if not delivery.unacked:
            del self._deliveries[txn_id]

    def _send_client_final(self, client: str, txn_id: str, outcome: str,
                           timestamp: Optional[Tuple[float, str, int]]) -> None:
        self.network.fused_send_to(
            self, client, MESSAGE_HEADER_BYTES + 48,
            self.network.node(client)._txn_final,
            (txn_id, outcome, timestamp))

    # -- introspection -------------------------------------------------------
    def time_to_recover_ms(self) -> Optional[float]:
        """Takeover duration (probe start → every in-doubt txn resolved)."""
        if self.recovery_started_ms is None \
                or self.recovery_completed_ms is None:
            return None
        return self.recovery_completed_ms - self.recovery_started_ms

    def in_doubt_txns(self) -> List[str]:
        return sorted(self._in_doubt)
