"""The 2PC coordinator's takeover role: heartbeats, election, recovery.

A coordinator group is an ordered list of coordinators; the first starts
*active*, the rest are standbys watching its heartbeats.  When it goes
silent, standby rank ``r`` takes over after ``(1 + r)`` detection timeouts,
so the first surviving standby always wins.

A successor *fences then reads*: it bumps the group epoch and probes every
participant with ``_txn_takeover``, which installs the new epoch (old-epoch
traffic is then rejected) and returns the participant's log.  Then:

* any participant holds a **commit** record → the transaction was decided
  (and maybe acked): re-drive the commit, original timestamp, to all;
* a transaction only **prepared** wherever it is known → abort, once
  *every* participant of it has answered a probe (a silent one might hold
  the one commit record proving the old coordinator acked the client).

Transaction state is volatile: :meth:`recover` clears it and rejoins as a
standby, restarting from the participants' logs alone.  These hops go
through :meth:`~repro.sim.node.Node._send_control`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.network import MESSAGE_HEADER_BYTES
from repro.txn.log import TxnLogRecord, TxnState

COMMIT = "commit"
ABORT = "abort"


class CoordinatorTakeover:
    """A coordinator's heartbeat, takeover and in-doubt recovery hops."""

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
                break
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

    # -- introspection -------------------------------------------------------
    def time_to_recover_ms(self) -> Optional[float]:
        """Takeover duration (probe start → every in-doubt txn resolved)."""
        if self.recovery_started_ms is None \
                or self.recovery_completed_ms is None:
            return None
        return self.recovery_completed_ms - self.recovery_started_ms
