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

Each transaction is one :class:`TxnOp`, sent by reference to the
coordinator the balancer picks, which answers into ``_txn_redirect``,
``_txn_prepared`` and ``_txn_final``: every hop is a
:meth:`~repro.sim.network.Network.fused_send_to` continuation, with no
``Message`` and no payload dict.

A timed out submission counts against its coordinator's health and is
re-sent, after a capped exponential backoff, to the coordinator the balancer
picks next: at most ``client_retries`` times, and never once the
transaction's absolute deadline (``TxnOp.deadline_ms``, the same one every
hop of the transaction checks) has passed.  Retries are idempotent — they
carry the same record and transaction id, and coordinators deduplicate by
id.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core.consistency import STRONG, ConsistencyLevel
from repro.core.correctable import Correctable
from repro.core.errors import CorrectableError
from repro.sim.network import KEY_SIZE_BYTES, MESSAGE_HEADER_BYTES, Network
from repro.sim.node import Node
from repro.txn.balancer import LoadBalancer
from repro.txn.config import VALUE_SIZE_BYTES, TxnConfig

#: The speculative "all participants voted yes" consistency level: stronger
#: than causal (it reflects a coordinated, conflict-checked state) but
#: weaker than the final committed outcome.
PREPARED = ConsistencyLevel.register("prepared", 25)

#: The re-send backoff after the ``n``-th timeout:
#: ``min(_BACKOFF_CAP_MS, _BACKOFF_BASE_MS * 2 ** (n - 1))`` — it keeps a
#: failed-over coordinator from being hammered during its recovery.
_BACKOFF_BASE_MS = 25.0
_BACKOFF_CAP_MS = 400.0


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


class TxnOp:
    """One transaction, from :meth:`TransactionManager.execute_sink` to its
    final answer.

    Every attempt sends this record to a coordinator, which reads the wire
    fields (``txn_id`` … ``size_bytes``; ``client`` is the reply address)
    only.  The rest is the manager's bookkeeping: routing hints, redirect
    and re-send counts, and ``timeout_event``, the one event armed for the
    transaction: the request timer or the backoff before a re-send, each
    carrying this record.  Freed by refcount: no pool.
    """

    __slots__ = ("txn_id", "writes", "client", "deadline_ms", "size_bytes",
                 "sink", "sent_at", "prepared_seen", "last_target",
                 "preferred", "redirects", "attempts", "timeout_event")

    def __init__(self, txn_id: str, writes: Dict[str, Any], client: str,
                 deadline_ms: float, size_bytes: int, sink: Any,
                 sent_at: float) -> None:
        self.txn_id = txn_id
        self.writes = writes
        self.client = client
        self.deadline_ms = deadline_ms
        self.size_bytes = size_bytes
        self.sink = sink
        self.sent_at = sent_at
        self.prepared_seen = False
        #: The coordinator tried last and the one a redirect named.
        self.last_target = self.preferred = None
        self.redirects = self.attempts = 0
        self.timeout_event: Optional[Any] = None


class TransactionManager(Node):
    """Issues multi-key transactions against the coordinator group."""

    def __init__(self, name: str, region: str, network: Network,
                 coordinators: Sequence[str], config: TxnConfig) -> None:
        super().__init__(name, region, network)
        self.config = config
        self.coordinators = tuple(coordinators)
        self.balancer = LoadBalancer(self.coordinators)
        self._txn_ids = itertools.count(1)
        self._pending: Dict[str, TxnOp] = {}
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
    def execute(self, writes: Dict[str, Any]) -> Correctable:
        """Submit a multi-key transaction; returns its Correctable."""
        correctable = Correctable(clock=self.scheduler.now,
                                  levels=(PREPARED, STRONG))
        self.execute_sink(writes, correctable)
        return correctable

    def execute_sink(self, writes: Dict[str, Any], sink: Any) -> str:
        """Submit a multi-key transaction to complete into ``sink``
        (:mod:`repro.core.sink`); returns its id.

        The preliminary is the PREPARED notice, the final carries the
        outcome and the commit timestamp as its stamp, and the error is a
        :class:`TransactionError`."""
        if not writes:
            raise ValueError("a transaction needs at least one write")
        txn_id = f"{self.name}:{next(self._txn_ids)}"
        now = self.scheduler.now()
        size = MESSAGE_HEADER_BYTES + len(writes) * (
            KEY_SIZE_BYTES + VALUE_SIZE_BYTES)
        op = self._pending[txn_id] = TxnOp(
            txn_id, dict(writes), self.name,
            now + self.config.txn_deadline_ms, size, sink, now)
        self.txns_submitted += 1
        self._dispatch(op)
        return txn_id

    def _dispatch(self, op: TxnOp) -> None:
        """Send ``op`` to the coordinator the balancer picks and arm the
        request timer; nothing is armed for ``op`` when this runs."""
        target = self.balancer.pick(self.scheduler.now(),
                                    preferred=op.preferred,
                                    avoid=op.last_target)
        op.preferred = None
        op.last_target = target
        self.network.fused_send_to(self, target, op.size_bytes,
                                   self.network.node(target)._txn_begin,
                                   (op,))
        timeout_ms = self.config.client_timeout_ms
        if timeout_ms > 0:
            op.timeout_event = self.scheduler.schedule(
                timeout_ms, self._on_request_timeout, op)

    # -- failover ------------------------------------------------------------
    def _on_request_timeout(self, op: TxnOp) -> None:
        """No answer in time (or a redirect loop): count it against the
        coordinator, then re-send after the backoff, or fail the
        transaction once its deadline has passed or its retries are
        spent.  Nothing is armed when this runs."""
        op.timeout_event = None
        now = self.scheduler.now()
        if op.last_target is not None:
            # Feed the health tracker: this coordinator went silent.
            self.balancer.record_failure(op.last_target, now)
        if now >= op.deadline_ms or op.attempts >= self.config.client_retries:
            self.failed_requests += 1
            del self._pending[op.txn_id]
            if op.prepared_seen:
                self.stats.unresolved += 1
            op.sink.deliver_error(
                TransactionError(
                    "transaction timeout: no coordinator answered"),
                now - op.sent_at)
            return
        op.attempts += 1
        self.retries += 1
        op.timeout_event = self.scheduler.schedule(
            min(_BACKOFF_CAP_MS, _BACKOFF_BASE_MS * 2 ** (op.attempts - 1)),
            self._resend, op)

    def _resend(self, op: TxnOp) -> None:
        """The backoff ran out: re-send.  A final cancels the backoff, so
        the transaction is still pending."""
        op.timeout_event = None
        self._dispatch(op)

    # -- responses (network continuations) -----------------------------------
    def _txn_redirect(self, txn_id: str, active: str) -> None:
        """A standby bounced us toward the coordinator it believes active."""
        if not self.alive:
            self.network.messages_dropped += 1
            return
        self.network.messages_delivered += 1
        op = self._pending.get(txn_id)
        if op is None:
            return
        if op.timeout_event is not None:
            # The request timer, or the backoff of a timeout that came
            # first: the redirect acts in its place.
            op.timeout_event.cancel()
            op.timeout_event = None
        op.redirects += 1
        self.redirects_followed += 1
        if op.redirects <= 2 * len(self.coordinators):
            op.preferred = active
            self._dispatch(op)
            return
        # Redirect loop (no coordinator admits being active): burn a retry.
        self._on_request_timeout(op)

    def _txn_prepared(self, txn_id: str) -> None:
        if not self.alive:
            self.network.messages_dropped += 1
            return
        self.network.messages_delivered += 1
        op = self._pending.get(txn_id)
        if op is None or op.prepared_seen:
            return
        op.prepared_seen = True
        self.stats.prepared_views += 1
        op.sink.deliver_preliminary(
            {"txn_id": txn_id, "outcome": "commit", "speculative": True},
            None, self.scheduler.now() - op.sent_at)

    def _txn_final(self, txn_id: str, outcome: str,
                   timestamp: Optional[Tuple[float, str, int]]) -> None:
        if not self.alive:
            self.network.messages_dropped += 1
            return
        self.network.messages_delivered += 1
        op = self._pending.pop(txn_id, None)
        if op is None:
            self.duplicate_finals += 1
            return
        if op.timeout_event is not None:
            op.timeout_event.cancel()
            op.timeout_event = None
        if op.last_target is not None:
            self.balancer.record_success(op.last_target)
        latency_ms = self.scheduler.now() - op.sent_at
        committed = outcome == "commit"
        self.stats.record_final(op.prepared_seen, committed)
        if committed:
            self.acked_commits[txn_id] = {
                "timestamp": timestamp,
                "writes": op.writes,
                "latency_ms": latency_ms,
            }
        else:
            self.acked_aborts.add(txn_id)
        op.sink.deliver_final(
            {"txn_id": txn_id, "outcome": outcome, "timestamp": timestamp},
            timestamp, latency_ms)
