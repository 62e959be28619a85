"""Client-side transaction manager: multi-key transactions as Correctables.

:meth:`TransactionManager.execute` submits a multi-key write transaction to
the coordinator group (routed through the health-tracking
:class:`~repro.txn.balancer.LoadBalancer`) and returns a
:class:`~repro.core.correctable.Correctable`:

* a speculative **PREPARED** preliminary view fires as soon as every
  participant voted yes — the transaction will *probably* commit, but a
  coordinator crash before the decision is durable can still abort it;
* the **final** view carries the actual commit/abort outcome.

:meth:`TransactionManager.execute_sink` runs the same transaction into
any sink of :mod:`repro.core.sink` (``execute`` passes the Correctable).

The manager reuses the same :class:`~repro.sim.failover.FailoverMixin` +
:class:`~repro.core.retry.RetryPolicy` seam as the storage clients: a timed
out submission is retried (with capped exponential backoff) against the
next healthy coordinator, within the transaction's absolute
:class:`~repro.core.retry.Deadline`.  Retries are idempotent — they carry
the same transaction id, and coordinators deduplicate by id.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from repro.core.consistency import STRONG, ConsistencyLevel
from repro.core.correctable import Correctable
from repro.core.errors import CorrectableError
from repro.core.retry import Deadline, RetryPolicy
from repro.sim.failover import FailoverMixin
from repro.sim.network import MESSAGE_HEADER_BYTES, Message, Network
from repro.sim.node import Node
from repro.txn.balancer import LoadBalancer
from repro.txn.config import TxnConfig

#: The speculative "all participants voted yes" consistency level: stronger
#: than causal (it reflects a coordinated, conflict-checked state) but
#: weaker than the final committed outcome.
PREPARED = ConsistencyLevel.register("prepared", 25)


class TransactionError(CorrectableError):
    """A transaction could not be driven to a known outcome."""


@dataclass
class PreparedViewStats:
    """Accounting for how often the speculative PREPARED view was right."""

    prepared_views: int = 0
    matched: int = 0
    mismatched: int = 0
    unresolved: int = 0

    def record_final(self, prepared_seen: bool, committed: bool) -> None:
        if not prepared_seen:
            return
        if committed:
            self.matched += 1
        else:
            self.mismatched += 1

    def accuracy(self) -> Optional[float]:
        """Fraction of resolved PREPARED views whose transaction committed."""
        resolved = self.matched + self.mismatched
        if resolved == 0:
            return None
        return self.matched / resolved


@dataclass
class _PendingTxn:
    txn_id: str
    writes: Dict[str, Any]
    sent_at: float
    sink: Any
    deadline_ms: float
    prepared_seen: bool = False
    last_target: Optional[str] = None
    preferred: Optional[str] = None
    redirects: int = 0
    attempts: int = 0
    rotation_index: int = 0
    timeout_event: Optional[Any] = None


class TransactionManager(FailoverMixin, Node):
    """Issues multi-key transactions against the coordinator group."""

    def __init__(self, name: str, region: str, network: Network,
                 coordinators: Sequence[str], config: TxnConfig,
                 balancer: Optional[LoadBalancer] = None) -> None:
        super().__init__(name, region, network)
        self.config = config
        self.coordinators = tuple(coordinators)
        self.balancer = balancer if balancer is not None else LoadBalancer(
            self.coordinators,
            failure_threshold=config.breaker_failure_threshold,
            reset_timeout_ms=config.breaker_reset_ms)
        self._txn_ids = itertools.count(1)
        self._pending: Dict[str, _PendingTxn] = {}
        self._failover_policy = RetryPolicy(
            max_retries=config.client_retries,
            base_delay_ms=config.client_backoff_base_ms,
            multiplier=config.client_backoff_multiplier,
            cap_ms=config.client_backoff_cap_ms,
            jitter_ms=config.client_backoff_jitter_ms,
            label=f"failover:{name}")
        self.stats = PreparedViewStats()
        #: Acked outcomes, kept for the post-run atomicity audit:
        #: txn_id -> {"timestamp": (t, coord, seq), "writes": {...}}.
        self.acked_commits: Dict[str, Dict[str, Any]] = {}
        self.acked_aborts: set = set()
        # Instrumentation.
        self.txns_submitted = 0
        self.retries = 0
        self.failed_requests = 0
        self.redirects_followed = 0
        self.duplicate_finals = 0

    # -- issuing transactions -----------------------------------------------
    def execute(self, writes: Dict[str, Any],
                budget_ms: Optional[float] = None) -> Correctable:
        """Submit a multi-key transaction; returns its Correctable."""
        correctable = Correctable(clock=self.scheduler.now,
                                  levels=(PREPARED, STRONG))
        self.execute_sink(writes, correctable, budget_ms)
        return correctable

    def execute_sink(self, writes: Dict[str, Any], sink: Any,
                     budget_ms: Optional[float] = None) -> str:
        """Submit a multi-key transaction to complete into ``sink``
        (:mod:`repro.core.sink`); returns its id.

        The preliminary is the PREPARED notice, the final carries the
        outcome and the commit timestamp as its stamp, and the error is a
        :class:`TransactionError`."""
        if not writes:
            raise ValueError("a transaction needs at least one write")
        txn_id = f"{self.name}:{next(self._txn_ids)}"
        now = self.scheduler.now()
        deadline = Deadline.after(
            now, budget_ms if budget_ms is not None
            else self.config.txn_deadline_ms)
        pending = _PendingTxn(txn_id=txn_id, writes=dict(writes), sent_at=now,
                              sink=sink, deadline_ms=deadline.expires_at_ms)
        self._pending[txn_id] = pending
        self.txns_submitted += 1
        self._dispatch(pending)
        return txn_id

    def _dispatch(self, pending: _PendingTxn) -> None:
        now = self.scheduler.now()
        target = self.balancer.pick(now, preferred=pending.preferred,
                                    avoid=pending.last_target)
        pending.preferred = None
        pending.last_target = target
        size = MESSAGE_HEADER_BYTES + sum(
            self.config.key_size_bytes + self.config.value_size_bytes
            for _ in pending.writes)
        self.send(target, "txn_begin", {
            "txn_id": pending.txn_id,
            "writes": dict(pending.writes),
            "client": self.name,
            "deadline_ms": pending.deadline_ms,
        }, size_bytes=size)
        self._arm_request_timeout(pending, pending.txn_id,
                                  self.config.client_timeout_ms)

    # -- failover hooks (see FailoverMixin) ----------------------------------
    def _redispatch(self, pending: _PendingTxn) -> None:
        self._dispatch(pending)

    def _on_request_timeout(self, txn_id: str) -> None:
        pending = self._pending.get(txn_id)
        if pending is None:
            return
        now = self.scheduler.now()
        if pending.last_target is not None:
            # Feed the health tracker: this coordinator went silent.
            self.balancer.record_failure(pending.last_target, now)
        if Deadline(pending.deadline_ms).expired(now):
            # No budget left for another attempt: fail now.
            pending.timeout_event = None
            self.failed_requests += 1
            del self._pending[txn_id]
            self._deliver_timeout_failure(pending)
            return
        super()._on_request_timeout(txn_id)

    def _deliver_timeout_failure(self, pending: _PendingTxn) -> None:
        if pending.prepared_seen:
            self.stats.unresolved += 1
        pending.sink.deliver_error(
            TransactionError("transaction timeout: no coordinator answered"),
            self.scheduler.now() - pending.sent_at)

    # -- responses -----------------------------------------------------------
    def on_txn_redirect(self, message: Message) -> None:
        """A standby bounced us toward the coordinator it believes active."""
        payload = message.payload
        pending = self._pending.get(payload["txn_id"])
        if pending is None:
            return
        self._settle(pending)
        pending.redirects += 1
        self.redirects_followed += 1
        if pending.redirects <= 2 * len(self.coordinators):
            pending.preferred = payload.get("active")
            self._dispatch(pending)
            return
        # Redirect loop (no coordinator admits being active): burn a retry.
        self._on_request_timeout(pending.txn_id)

    def on_txn_prepared_notice(self, message: Message) -> None:
        payload = message.payload
        pending = self._pending.get(payload["txn_id"])
        if pending is None or pending.prepared_seen:
            return
        pending.prepared_seen = True
        self.stats.prepared_views += 1
        pending.sink.deliver_preliminary(
            {"txn_id": pending.txn_id, "outcome": "commit",
             "speculative": True},
            None, self.scheduler.now() - pending.sent_at)

    def on_txn_final(self, message: Message) -> None:
        payload = message.payload
        pending = self._pending.pop(payload["txn_id"], None)
        if pending is None:
            self.duplicate_finals += 1
            return
        self._settle(pending)
        if pending.last_target is not None:
            self.balancer.record_success(pending.last_target)
        outcome = payload["outcome"]
        timestamp = (tuple(payload["timestamp"])
                     if payload.get("timestamp") else None)
        latency_ms = self.scheduler.now() - pending.sent_at
        committed = outcome == "commit"
        self.stats.record_final(pending.prepared_seen, committed)
        if committed:
            self.acked_commits[pending.txn_id] = {
                "timestamp": timestamp,
                "writes": dict(pending.writes),
                "latency_ms": latency_ms,
            }
        else:
            self.acked_aborts.add(pending.txn_id)
        pending.sink.deliver_final(
            {"txn_id": pending.txn_id, "outcome": outcome,
             "timestamp": timestamp},
            timestamp, latency_ms)
