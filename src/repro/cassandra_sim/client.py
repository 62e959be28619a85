"""Client node for the simulated Cassandra cluster.

A client connects to one contact replica (its coordinator) and issues reads
and writes with explicit quorum sizes, mirroring the DataStax driver the
paper's prototype uses.  ICG reads (``icg=True``) complete twice: once for
the coordinator's preliminary response and once for the final quorum
response.

Completions have one interface, the *sink*: an object the issuer hands in
with the operation and the client completes positionally —

* ``deliver_read_preliminary(value, timestamp, latency_ms, replica)``
* ``deliver_read_final(value, timestamp, latency_ms, is_confirmation,
  degraded, matches_preliminary)``
* ``deliver_write_ack(timestamp, latency_ms, degraded)``
* ``deliver_read_error(error, latency_ms)`` /
  ``deliver_write_error(error, latency_ms)``

— whichever wire path carried the request (pooled fused records, or classic
``Message`` requests with timeouts and failover).  The callback API
(``read(..., on_final=cb)``) is :class:`_CallbackSink`, a sink that builds
the response dict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.cassandra_sim.config import CassandraConfig
from repro.cassandra_sim.coordinator import FusedRead, FusedWrite
from repro.core.retry import RetryPolicy
from repro.sim.failover import FailoverMixin
from repro.sim.network import MESSAGE_HEADER_BYTES, Message, Network, estimate_payload_size
from repro.sim.node import Node

#: ``callback(response_dict)`` where the dict carries value/found/timestamp/...
ResponseCallback = Callable[[Dict[str, Any]], None]


class _CallbackSink:
    """The callback API as a sink: the one place response dicts are built."""

    __slots__ = ("on_preliminary", "on_final")

    def __init__(self, on_preliminary: Optional[ResponseCallback],
                 on_final: Optional[ResponseCallback]) -> None:
        self.on_preliminary = on_preliminary
        self.on_final = on_final

    def deliver_read_preliminary(self, value: Any, timestamp: Any,
                                 latency_ms: float,
                                 replica: Optional[str] = None) -> None:
        if self.on_preliminary is not None:
            self.on_preliminary({
                "value": value,
                "found": timestamp is not None,
                "timestamp": timestamp,
                "replica": replica,
                "latency_ms": latency_ms,
                "is_confirmation": False,
            })

    def deliver_read_final(self, value: Any, timestamp: Any,
                           latency_ms: float, is_confirmation: bool,
                           degraded: bool = False,
                           matches_preliminary: Optional[bool] = None) -> None:
        if self.on_final is not None:
            self.on_final({
                "value": value,
                "found": timestamp is not None,
                "timestamp": timestamp,
                "is_confirmation": is_confirmation,
                "matches_preliminary": matches_preliminary,
                "degraded": degraded,
                "latency_ms": latency_ms,
            })

    def deliver_write_ack(self, timestamp: Any, latency_ms: float,
                          degraded: bool = False) -> None:
        if self.on_final is not None:
            self.on_final({
                "value": True,
                "found": True,
                "timestamp": timestamp,
                "is_confirmation": False,
                "degraded": degraded,
                "latency_ms": latency_ms,
            })

    def deliver_read_error(self, error: str, latency_ms: float) -> None:
        if self.on_final is not None:
            self.on_final({
                "value": None,
                "found": False,
                "timestamp": None,
                "is_confirmation": False,
                "error": error,
                "latency_ms": latency_ms,
            })

    deliver_write_error = deliver_read_error


@dataclass(slots=True)
class _PendingRequest:
    """One classic (``Message``-path) request awaiting its final response."""

    #: Message kind of the request: ``client_read`` or ``client_write``.
    kind: str
    sent_at: float
    sink: Any
    #: Request payload, shared with every (re-)sent message.
    request: Dict[str, Any]
    size_bytes: int
    preliminary_value: Any = None
    #: Failover state: retry count, rotation position, and the pending
    #: client-side timeout event.
    attempts: int = 0
    rotation_index: int = 0
    timeout_event: Optional[Any] = None


class CassandraClient(FailoverMixin, Node):
    """A client application node issuing operations against one coordinator.

    With ``config.client_timeout_ms`` set and ``fallback_contacts`` given, a
    request that receives no final response in time is re-issued to the next
    coordinator in the rotation — which is how sessions survive a crashed or
    partitioned-away contact replica.
    """

    def __init__(self, name: str, region: str, network: Network,
                 contact: str, config: CassandraConfig,
                 fallback_contacts: Optional[Sequence[str]] = None) -> None:
        super().__init__(name, region, network)
        self.contact = contact
        self.config = config
        self._contacts: List[str] = [contact] + [
            c for c in (fallback_contacts or []) if c != contact]
        self._req_ids = itertools.count(1)
        self._pending: Dict[int, _PendingRequest] = {}
        #: Contact replica's node object, resolved lazily on the first fused
        #: operation (registration order is not constrained at __init__).
        self._fused_coordinator: Optional[Any] = None
        self.reads_sent = 0
        self.writes_sent = 0
        # Which path each operation took (see path_counts): operations sent
        # as classic Messages, operations issued through the callback API,
        # and their intersection.  The fused sink path bumps none of them.
        self.message_ops = 0
        self.callback_ops = 0
        self.callback_message_ops = 0
        # Fault-path instrumentation (stays zero with timeouts disabled).
        self.retries = 0
        self.failed_requests = 0
        #: Preliminary views that arrived after the final response — the
        #: client-side analogue of ``Correctable.discarded_updates``.
        self.late_preliminaries = 0
        # Fused continuations, bound once: coordinators pass these to fused
        # sends, and an instance-attribute load avoids materializing a new
        # bound method per reply hop.
        self._fused_read_preliminary = self._fused_read_preliminary
        self._fused_read_final = self._fused_read_final
        self._fused_read_error = self._fused_read_error
        self._fused_write_ack = self._fused_write_ack
        self._fused_write_error = self._fused_write_error

    # -- issuing operations -------------------------------------------------
    def _fused_contact(self) -> "Any":
        coordinator = self._fused_coordinator
        if coordinator is None:
            coordinator = self.network.node(self._contacts[0])
            self._fused_coordinator = coordinator
        return coordinator

    def lean_ready(self) -> bool:
        """Whether callers should hand operations their own pooled sink.

        Just the ``protocol.lean_ops`` kill-switch, checked per issued
        operation so it can flip mid-run.  It says nothing about the wire
        path: under timeouts, fallback contacts or read repair a sink is
        completed from classic ``Message`` responses.
        """
        return self.network.lean_ops

    def path_counts(self) -> Dict[str, int]:
        """Operations issued so far, by completion kind × wire path."""
        callback_fused = self.callback_ops - self.callback_message_ops
        sink_message = self.message_ops - self.callback_message_ops
        return {
            "sink_fused": (self.reads_sent + self.writes_sent
                           - self.message_ops - callback_fused),
            "sink_message": sink_message,
            "callback_fused": callback_fused,
            "callback_message": self.callback_message_ops,
        }

    def lean_read(self, key: str, r: int, icg: bool, sink: Any) -> int:
        """Issue a read completing into ``sink``; returns the request id."""
        req_id = next(self._req_ids)
        self.reads_sent += 1
        config = self.config
        network = self.network
        size = MESSAGE_HEADER_BYTES + config.key_size_bytes + 8
        # The fused *wire* path carries no timeout/failover machinery, so it
        # needs every fault hook disarmed: a single contact (no rotation),
        # all timeouts off, and no read repair.  Anything else sends classic
        # ``Message`` requests; completions reach ``sink`` either way.
        if (network.fast_path and len(self._contacts) == 1
                and config.client_timeout_ms <= 0
                and config.read_timeout_ms <= 0
                and config.write_timeout_ms <= 0 and not config.read_repair):
            coordinator = self._fused_coordinator
            if coordinator is None:
                coordinator = self._fused_contact()
            rec = FusedRead.acquire()
            rec.client = self
            rec.coordinator = coordinator
            rec.key = key
            rec.r = r
            rec.icg = icg
            rec.sent_at = self.scheduler.clock._now
            rec.sink = sink
            network.fused_send_to(self, coordinator.name, size,
                                  coordinator._fused_client_read, rec.args)
            return req_id
        self._send_classic(_PendingRequest(
            "client_read", self.scheduler.clock._now, sink,
            {"req_id": req_id, "key": key, "r": r, "icg": icg}, size), req_id)
        return req_id

    def lean_write(self, key: str, value: Any, w: int, sink: Any) -> int:
        """Issue a write completing into ``sink``; returns the request id."""
        req_id = next(self._req_ids)
        self.writes_sent += 1
        # A YCSB update writes a single field, so the request is sized by the
        # written payload (reads, in contrast, return the whole record and are
        # sized by the replica using ``config.value_size_bytes`` as a floor).
        if type(value) is str and value.isascii():
            value_bytes = len(value)
        else:
            value_bytes = estimate_payload_size(value)
        config = self.config
        network = self.network
        size = MESSAGE_HEADER_BYTES + config.key_size_bytes + value_bytes
        # The fused wire-path gate (see lean_read).
        if (network.fast_path and len(self._contacts) == 1
                and config.client_timeout_ms <= 0
                and config.read_timeout_ms <= 0
                and config.write_timeout_ms <= 0 and not config.read_repair):
            coordinator = self._fused_coordinator
            if coordinator is None:
                coordinator = self._fused_contact()
            rec = FusedWrite.acquire()
            rec.client = self
            rec.coordinator = coordinator
            rec.key = key
            rec.value = value
            rec.version = None
            rec.w = w
            rec.sent_at = self.scheduler.clock._now
            rec.sink = sink
            network.fused_send_to(self, coordinator.name, size,
                                  coordinator._fused_client_write, rec.args)
            return req_id
        self._send_classic(_PendingRequest(
            "client_write", self.scheduler.clock._now, sink,
            {"req_id": req_id, "key": key, "value": value, "w": w}, size),
            req_id)
        return req_id

    def read(self, key: str, r: int = 1, icg: bool = False,
             on_preliminary: Optional[ResponseCallback] = None,
             on_final: Optional[ResponseCallback] = None) -> int:
        """Issue a read with read-quorum ``r``; returns the request id."""
        self.callback_ops += 1
        return self.lean_read(key, r, icg,
                              _CallbackSink(on_preliminary, on_final))

    def write(self, key: str, value: Any, w: int = 1,
              on_final: Optional[ResponseCallback] = None) -> int:
        """Issue a write with write-quorum ``w``; returns the request id."""
        self.callback_ops += 1
        return self.lean_write(key, value, w, _CallbackSink(None, on_final))

    # -- dispatch & failover (see FailoverMixin) ------------------------------
    def _send_classic(self, pending: _PendingRequest, req_id: int) -> None:
        self.message_ops += 1
        if type(pending.sink) is _CallbackSink:
            self.callback_message_ops += 1
        self._pending[req_id] = pending
        self._redispatch(pending)

    def _redispatch(self, pending: _PendingRequest) -> None:
        contact = self._contacts[pending.rotation_index % len(self._contacts)]
        # The request dict is shared with the message (no defensive copy):
        # replica handlers only read payloads, and a re-dispatch after
        # failover sends the identical request anyway.
        self.send(contact, pending.kind, pending.request,
                  size_bytes=pending.size_bytes)
        self._arm_request_timeout(pending, pending.request["req_id"],
                                  self.config.client_timeout_ms)

    def _failover_retries(self) -> int:
        return self.config.client_retries

    def _retry_policy(self) -> RetryPolicy:
        policy = self._failover_policy
        if policy is None:
            policy = RetryPolicy(
                max_retries=self.config.client_retries,
                base_delay_ms=self.config.client_backoff_base_ms,
                multiplier=self.config.client_backoff_multiplier,
                cap_ms=self.config.client_backoff_cap_ms,
                jitter_ms=self.config.client_backoff_jitter_ms,
                label=f"failover:{self.name}")
            self._failover_policy = policy
        return policy

    def _deliver_failure(self, pending: _PendingRequest, error: str) -> None:
        latency_ms = self.scheduler.clock._now - pending.sent_at
        if pending.kind == "client_read":
            pending.sink.deliver_read_error(error, latency_ms)
        else:
            pending.sink.deliver_write_error(error, latency_ms)

    def _deliver_timeout_failure(self, pending: _PendingRequest) -> None:
        self._deliver_failure(pending,
                              "client timeout: no coordinator responded")

    # -- responses (classic message path) -------------------------------------
    def on_read_preliminary(self, message: Message) -> None:
        payload = message.payload
        pending = self._pending.get(payload["req_id"])
        if pending is None:
            self.late_preliminaries += 1
            return
        value = pending.preliminary_value = payload["value"]
        pending.sink.deliver_read_preliminary(
            value, payload["timestamp"],
            self.scheduler.clock._now - pending.sent_at,
            payload.get("replica"))

    def on_read_final(self, message: Message) -> None:
        payload = message.payload
        pending = self._pending.pop(payload["req_id"], None)
        if pending is None:
            return
        self._settle(pending)
        is_confirmation = bool(payload.get("is_confirmation", False))
        # A confirmation elides the payload: the preliminary value is final.
        value = (pending.preliminary_value if is_confirmation
                 else payload["value"])
        pending.sink.deliver_read_final(
            value, payload["timestamp"],
            self.scheduler.clock._now - pending.sent_at, is_confirmation,
            bool(payload.get("degraded", False)),
            payload.get("matches_preliminary"))

    def on_write_ack_client(self, message: Message) -> None:
        payload = message.payload
        pending = self._pending.pop(payload["req_id"], None)
        if pending is None:
            return
        self._settle(pending)
        pending.sink.deliver_write_ack(
            payload.get("timestamp"),
            self.scheduler.clock._now - pending.sent_at,
            bool(payload.get("degraded", False)))

    def on_read_error(self, message: Message) -> None:
        payload = message.payload
        pending = self._pending.pop(payload["req_id"], None)
        if pending is None:
            return
        self._settle(pending)
        # A coordinator that left the ring answers with a *retryable* error:
        # rotate to the next contact instead of failing the request (the
        # rebalance analogue of timeout-driven failover).
        if payload.get("retryable") and len(self._contacts) > 1 \
                and self._retry_policy().should_retry(pending.attempts):
            pending.attempts += 1
            pending.rotation_index += 1
            self.retries += 1
            self._pending[payload["req_id"]] = pending
            self._redispatch(pending)
            return
        self.failed_requests += 1
        self._deliver_failure(pending, payload.get("error", "storage error"))

    on_write_error = on_read_error

    # -- responses (fused wire path) ------------------------------------------
    # Network continuations: each starts with the delivery preamble (the
    # alive check plus delivered/dropped counters _deliver does for
    # messages).  Records are recycled before the sink runs — a sink may
    # issue the next operation, which is allowed to reuse the record — so
    # everything the delivery needs is captured first.
    def _fused_read_preliminary(self, rec: FusedRead, replica: str) -> None:
        net = self.network
        if not self.alive:
            net.messages_dropped += 1
            return
        net.messages_delivered += 1
        if rec.final_done:
            # Outlived the final response (the coordinator was slowed, or the
            # flush job lost the race): count and recycle, no delivery.
            self.late_preliminaries += 1
            rec.prelim_seen = True
            if not rec.flush_pending:
                FusedRead.release(rec)
            return
        rec.prelim_seen = True
        version = rec.preliminary
        if version is None:
            value = timestamp = None
        else:
            value = version.value
            timestamp = version.timestamp
        rec.prelim_value = value
        rec.sink.deliver_read_preliminary(
            value, timestamp, self.scheduler.clock._now - rec.sent_at, replica)

    def _fused_read_final(self, rec: FusedRead, is_confirmation: bool,
                          matches_preliminary: bool) -> None:
        net = self.network
        if not self.alive:
            net.messages_dropped += 1
            return
        net.messages_delivered += 1
        rec.final_done = True
        version = rec.best
        if is_confirmation:
            # The storage elided the payload: the preliminary value is final.
            value = rec.prelim_value
        else:
            value = version.value if version is not None else None
        timestamp = version.timestamp if version is not None else None
        sink = rec.sink
        sent_at = rec.sent_at
        if not rec.flush_pending \
                and (not rec.preliminary_sent or rec.prelim_seen):
            FusedRead.release(rec)
        sink.deliver_read_final(
            value, timestamp, self.scheduler.clock._now - sent_at,
            is_confirmation, False, matches_preliminary)

    def _fused_read_error(self, rec: FusedRead, error: str) -> None:
        net = self.network
        if not self.alive:
            net.messages_dropped += 1
            return
        net.messages_delivered += 1
        self.failed_requests += 1
        sink = rec.sink
        sent_at = rec.sent_at
        FusedRead.release(rec)
        sink.deliver_read_error(error, self.scheduler.clock._now - sent_at)

    def _fused_write_ack(self, rec: FusedWrite) -> None:
        net = self.network
        if not self.alive:
            net.messages_dropped += 1
            return
        net.messages_delivered += 1
        rec.client_done = True
        sink = rec.sink
        sent_at = rec.sent_at
        timestamp = rec.version.timestamp
        if rec.ack_count >= rec.acks_expected:
            FusedWrite.release(rec)
        sink.deliver_write_ack(
            timestamp, self.scheduler.clock._now - sent_at, False)

    def _fused_write_error(self, rec: FusedWrite, error: str) -> None:
        net = self.network
        if not self.alive:
            net.messages_dropped += 1
            return
        net.messages_delivered += 1
        self.failed_requests += 1
        sink = rec.sink
        sent_at = rec.sent_at
        FusedWrite.release(rec)
        sink.deliver_write_error(error, self.scheduler.clock._now - sent_at)
