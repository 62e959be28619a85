"""Two-phase commit coordinator: the commit protocol.

The active member of the coordinator group turns the manager's
:class:`~repro.txn.manager.TxnOp` into prepares (:meth:`_txn_begin`),
collects votes (:meth:`_txn_vote`), emits the speculative ``PREPARED``
view once every participant voted yes, and delivers the decision until
every participant acked (:meth:`_txn_ack`).  A commit is acked to the
client only after the first participant's commit ack, once a durable
commit record exists, so no acked commit is lost to a mid-commit crash.
Every hop is a :meth:`~repro.sim.network.Network.fused_send_to`
continuation; a queued job or timer carries its :class:`InFlightTxn`, and
does nothing once another record is in flight.  Heartbeats and takeovers
are the coordinator's :class:`~repro.txn.takeover.Takeover`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence, Set, Tuple

from repro.sim.network import KEY_SIZE_BYTES, MESSAGE_HEADER_BYTES, Network
from repro.sim.node import Node
from repro.txn.config import DECISION_RETRY_MS, VALUE_SIZE_BYTES, TxnConfig
from repro.txn.log import TxnLogRecord, TxnState
from repro.txn.manager import TxnOp
from repro.txn.takeover import ABORT, COMMIT, Takeover

#: ``owners_of(key) -> participant names`` — the routing oracle the fabric
#: builds from the cluster's partitioner.
OwnersFn = Callable[[str], Sequence[str]]


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
        self.peers: Tuple[str, ...] = tuple(peers)
        self.participants: Tuple[str, ...] = tuple(sorted(participants))
        self.owners_of = owners_of
        self.active = index == 0
        self.epoch = 1
        # Volatile transaction state (cleared on crash recovery).
        self.in_flight: Dict[str, InFlightTxn] = {}
        self.decided: Dict[str, Tuple[str, Optional[Tuple[float, str, int]]]] = {}
        self._deliveries: Dict[str, _Delivery] = {}
        self._seq = itertools.count(1)
        # Instrumentation.
        self.txns_started = 0
        self.commits = 0
        self.aborts = 0
        self.prepare_timeouts = 0
        self.redirects = 0
        self.decision_redeliveries = 0
        self._retry_armed = False
        self.takeover = Takeover(self)

    def recover(self) -> None:
        """Restart after a crash: volatile state is gone, rejoin as standby."""
        super().recover()
        self.deactivate()
        self.decided.clear()
        self.takeover.rejoin()

    def not_current(self, epoch: int) -> bool:
        """Whether a participant's reply at ``epoch`` is not for this node
        as the active coordinator; a higher epoch deposes it."""
        if epoch > self.epoch and self.active:
            self.deactivate()
        return not self.active or epoch != self.epoch

    def deactivate(self) -> None:
        """Stop acting as the active coordinator (deposed, or restarted)."""
        self.active = False
        for state in self.in_flight.values():
            if state.timeout_event is not None:
                state.timeout_event.cancel()
        self.in_flight.clear()
        self._deliveries.clear()

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
                (txn_id, self.takeover.active_name))
            return
        decided = self.decided.get(txn_id)
        if decided is not None:
            self._send_client_final(op.client, txn_id, *decided)
            return
        if txn_id in self.in_flight or self.takeover.holds(txn_id):
            # Duplicate submission of a transaction still being worked on:
            # let it run (the reply-to is the transaction's own manager).
            return
        writes = op.writes
        per_participant: Dict[str, Dict[str, Any]] = {}
        for key in sorted(writes):
            for owner in self.owners_of(key):
                per_participant.setdefault(owner, {})[key] = writes[key]
        state = self.in_flight[txn_id] = InFlightTxn(
            op, tuple(sorted(per_participant)), per_participant)
        self.txns_started += 1
        self._enqueue(self.config.coordinator_service_ms,
                      self._send_prepares, (state,))

    def _send_prepares(self, state: InFlightTxn) -> None:
        # A job queued before a deposition or a retry's fresh begin finds
        # another record (or none) in flight: it is not this one's to serve.
        if not self.alive or self.in_flight.get(state.op.txn_id) is not state:
            return
        write_bytes = KEY_SIZE_BYTES + VALUE_SIZE_BYTES
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
            timeout, self._on_prepare_timeout, state)

    def _on_prepare_timeout(self, state: InFlightTxn) -> None:
        if not self.alive or self.in_flight.get(state.op.txn_id) is not state:
            return
        state.timeout_event = None
        self.prepare_timeouts += 1
        self._decide(state.op.txn_id, ABORT)

    # -- votes & decision ----------------------------------------------------
    def _txn_vote(self, txn_id: str, participant: str, epoch: int,
                  yes: bool) -> None:
        if not self.alive:
            self.network.messages_dropped += 1
            return
        self.network.messages_delivered += 1
        if self.not_current(epoch):
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
                              self._finalize_commit, (state,))

    def _finalize_commit(self, state: InFlightTxn) -> None:
        if not self.alive or self.in_flight.get(state.op.txn_id) is not state:
            return
        timestamp = (self.scheduler.now(), self.name, next(self._seq))
        self._decide(state.op.txn_id, COMMIT, timestamp)

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

    def settle(self, record: TxnLogRecord, outcome: str,
               timestamp: Optional[Tuple[float, str, int]]) -> None:
        """Take ``outcome`` for ``record``'s transaction, found in a log or
        presumed by a takeover, and deliver it to its participants.  A
        presumed abort (a prepared transaction nobody decided) counts."""
        txn_id = record.txn_id
        if txn_id not in self.decided and record.state == TxnState.PREPARED:
            self.aborts += 1
        self.decided[txn_id] = (outcome, timestamp)
        if record.participants:
            self._start_delivery(txn_id, outcome, timestamp,
                                 record.participants, record.client)

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
            self.scheduler.schedule(DECISION_RETRY_MS,
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
        self.scheduler.schedule(DECISION_RETRY_MS, self._decision_retry_tick)

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
