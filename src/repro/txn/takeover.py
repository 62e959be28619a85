"""The 2PC coordinator's takeover role: heartbeats, standby watch, recovery.

A coordinator group is an ordered list of coordinators; the first starts
*active*, the rest are standbys watching its heartbeats.  When it goes
silent, standby rank ``r`` takes over after ``(1 + r)`` detection timeouts,
so the first surviving standby always wins.

A successor *fences then reads*: it bumps the group epoch and probes every
participant, which installs the new epoch (old-epoch traffic is then
rejected) and returns its log.  Then:

* any participant holds a **commit** record → the transaction was decided
  (and maybe acked): re-drive the commit, original timestamp, to all;
* a transaction only **prepared** wherever it is known → abort, once
  *every* participant of it has answered a probe (a silent one might hold
  the one commit record proving the old coordinator acked the client).

:class:`Takeover`, which a coordinator hands itself to at construction,
owns the group knowledge, the standby rank, the timers and one
:class:`TakeoverRound` per takeover, and settles what it recovers through
the coordinator's ``settle``.  Its hops go through
:meth:`~repro.sim.node.Node._send_control`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.sim.network import MESSAGE_HEADER_BYTES
from repro.txn.config import TAKEOVER_PROBE_MS
from repro.txn.log import TxnLogRecord, TxnState

COMMIT = "commit"
ABORT = "abort"


@dataclass
class TakeoverRound:
    """One takeover: logs unread and read, what they leave in doubt, when."""

    started_ms: float
    pending: Set[str]
    replied: Set[str] = field(default_factory=set)
    in_doubt: Dict[str, TxnLogRecord] = field(default_factory=dict)
    completed_ms: Optional[float] = None


class Takeover:
    """A coordinator's heartbeats, standby watch and takeovers."""

    def __init__(self, coordinator: Any) -> None:
        self._coordinator = coordinator
        self._scheduler = coordinator.scheduler
        self._config = coordinator.config
        #: The highest group epoch heard of, and who is active in it.
        self.known_epoch = 1
        peers = coordinator.peers
        self._watch(peers[0] if peers else coordinator.name)
        #: The other coordinators, resolved at the first heartbeat.
        self._peers: Optional[tuple] = None
        self.round: Optional[TakeoverRound] = None  # the last takeover
        self.takeovers = 0
        self.heartbeats_sent = 0
        self._hb_armed = False
        self._probe_armed = False
        self._arm_heartbeat()
        self.last_heard_ms = 0.0

    def _watch(self, active_name: str) -> None:
        """``active_name`` is active; ``rank`` counts the standbys ahead."""
        self.active_name = active_name
        self.rank = 0
        for peer in self._coordinator.peers:
            if peer == self._coordinator.name:
                break
            if peer != active_name:
                self.rank += 1

    @property
    def recovering(self) -> bool:
        """Whether the coordinator is active by a takeover not yet done."""
        last = self.round
        return last is not None and last.completed_ms is None \
            and self._coordinator.active

    def holds(self, txn_id: str) -> bool:
        """Whether the last takeover holds ``txn_id`` in doubt."""
        return self.round is not None and txn_id in self.round.in_doubt

    def rejoin(self) -> None:
        """Restarted as a standby: trust the active until proven silent."""
        self.last_heard_ms = self._scheduler.now()
        self._arm_heartbeat()

    # -- heartbeats & standby watch --------------------------------------------
    def _arm_heartbeat(self) -> None:
        if self._config.heartbeat_interval_ms > 0 and not self._hb_armed:
            self._hb_armed = True
            self._scheduler.schedule(self._config.heartbeat_interval_ms,
                                     self._tick)

    def _tick(self) -> None:
        coordinator = self._coordinator
        if not coordinator.alive:
            self._hb_armed = False
            return
        if coordinator.active:
            self._broadcast_heartbeat()
        elif self._scheduler.now() - self.last_heard_ms \
                > self._config.coordinator_timeout_ms * (1 + self.rank):
            self.take_over()
        self._scheduler.schedule(self._config.heartbeat_interval_ms,
                                 self._tick)

    def _broadcast_heartbeat(self) -> None:
        coordinator = self._coordinator
        if self._peers is None:
            self._peers = tuple(coordinator.network.node(peer) for peer in
                                coordinator.peers if peer != coordinator.name)
        for peer in self._peers:
            coordinator._send_control(MESSAGE_HEADER_BYTES + 16, peer,
                                      peer.takeover.heartbeat,
                                      coordinator.name, coordinator.epoch)
        self.heartbeats_sent += 1

    def heartbeat(self, name: str, epoch: int) -> None:
        coordinator = self._coordinator
        if epoch < self.known_epoch:
            return
        if epoch > self.known_epoch or not coordinator.active:
            if coordinator.active and epoch > coordinator.epoch:
                coordinator.deactivate()
            self.known_epoch = epoch
            if name != self.active_name:
                self._watch(name)
        self.last_heard_ms = self._scheduler.now()

    # -- takeover ----------------------------------------------------------------
    def take_over(self) -> None:
        """Become active: fence the old epoch and recover from participant
        logs (what the tick does once the active coordinator went quiet)."""
        coordinator = self._coordinator
        coordinator.active = True
        coordinator.epoch = self.known_epoch = self.known_epoch + 1
        self._watch(coordinator.name)
        self.takeovers += 1
        self.round = TakeoverRound(self._scheduler.now(),
                                   set(coordinator.participants))
        self._broadcast_heartbeat()
        for participant in coordinator.participants:
            self._probe(participant)
        if not self._probe_armed:
            self._probe_armed = True
            self._scheduler.schedule(TAKEOVER_PROBE_MS, self._probe_tick)
        self._finish_if_done()

    def _probe(self, participant: str) -> None:
        coordinator = self._coordinator
        node = coordinator.network.node(participant)
        coordinator._send_control(MESSAGE_HEADER_BYTES + 16, node,
                                  node.takeover_probe, coordinator,
                                  coordinator.epoch)

    def _probe_tick(self) -> None:
        if not self._coordinator.alive or not self.recovering:
            self._probe_armed = False
            return
        for participant in sorted(self.round.pending):
            self._probe(participant)
        self._scheduler.schedule(TAKEOVER_PROBE_MS, self._probe_tick)

    def reply(self, participant: str, epoch: int,
              records: List[TxnLogRecord]) -> None:
        """``participant``'s log, its answer to a probe at ``epoch``."""
        coordinator = self._coordinator
        if coordinator.not_current(epoch) or not self.recovering:
            return
        last = self.round
        last.pending.discard(participant)
        last.replied.add(participant)
        decided = coordinator.decided
        for record in records:
            txn_id = record.txn_id
            if record.state == TxnState.COMMITTED:
                last.in_doubt.pop(txn_id, None)
                coordinator.settle(record, COMMIT, record.timestamp)
            elif record.state == TxnState.ABORTED:
                last.in_doubt.pop(txn_id, None)
                coordinator.settle(record,
                                   *decided.get(txn_id, (ABORT, None)))
            elif txn_id in decided:  # this participant gets the outcome too
                coordinator.settle(record, *decided[txn_id])
            else:
                last.in_doubt[txn_id] = record
        self._resolve_in_doubt()

    def _resolve_in_doubt(self) -> None:
        last = self.round
        for txn_id in sorted(last.in_doubt):
            record = last.in_doubt[txn_id]
            outcome = self._coordinator.decided.get(txn_id)
            if outcome is None:
                # Once every participant answered and none holds a commit
                # record, the old coordinator cannot have acked (acks need a
                # durable commit record): abort.  Until then it blocks.
                if not set(record.participants) <= last.replied:
                    continue
                outcome = (ABORT, None)
            del last.in_doubt[txn_id]
            self._coordinator.settle(record, *outcome)
        self._finish_if_done()

    def _finish_if_done(self) -> None:
        last = self.round
        if self.recovering and not last.pending and not last.in_doubt:
            last.completed_ms = self._scheduler.now()

    def time_to_recover_ms(self) -> Optional[float]:
        """The last takeover's duration, if it completed."""
        last = self.round
        if last is None or last.completed_ms is None:
            return None
        return last.completed_ms - last.started_ms
