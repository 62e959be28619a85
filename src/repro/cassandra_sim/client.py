"""Client node for the simulated Cassandra cluster.

A client connects to one contact replica (its coordinator) and issues reads
and writes with explicit quorum sizes, mirroring the DataStax driver the
paper's prototype uses.  :meth:`CassandraClient.lean_read` and
:meth:`CassandraClient.lean_write` are its only entries: the binding and
the load runners' issue functions all call them.  ICG reads
(``icg=True``) complete twice: once for the coordinator's preliminary
response and once for the final quorum response.

An operation completes into the *sink* its issuer hands over
(:mod:`repro.core.sink`): a load runner's record, a figure's recorder, or
the operation's :class:`~repro.core.correctable.Correctable` when the
Cassandra binding issues it.  The stamp is the LWW timestamp and a
preliminary's source the coordinator; a write's ack is a final carrying the
written value.

The request itself is a pooled record
(:mod:`repro.cassandra_sim.coordinator`), not a message.  With
``config.client_timeout_ms`` set, an operation that gets no final response in
time is re-sent at once, as a fresh attempt record, to the contact its
attempt count picks, at most ``config.client_retries`` times; whichever
attempt answers first completes the operation, and the others find it done.
The ZooKeeper client and the transaction manager keep their own timeout
rule on their own records: what the three share is a dozen lines, not a
class.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.cassandra_sim.config import CassandraConfig
from repro.cassandra_sim.coordinator import FusedRead, FusedWrite
from repro.sim.network import (KEY_SIZE_BYTES, MESSAGE_HEADER_BYTES, Network,
                               estimate_payload_size)
from repro.sim.node import Node


class CassandraClient(Node):
    """A client application node issuing operations against one coordinator.

    With ``config.client_timeout_ms`` set and ``fallback_contacts`` given, a
    request that receives no final response in time is re-issued to the next
    coordinator in the rotation — which is how sessions survive a crashed or
    partitioned-away contact replica.
    """

    def __init__(self, name: str, region: str, network: Network,
                 contact: str, config: CassandraConfig,
                 fallback_contacts: Optional[Sequence[str]] = None) -> None:
        contacts = [contact] + [
            c for c in (fallback_contacts or []) if c != contact]
        #: The contacts' node objects, the coordinator first: an unknown
        #: contact fails here, before this node joins the network.
        self._contact_nodes: List[Any] = [network.node(c) for c in contacts]
        self._coordinator = self._contact_nodes[0]
        super().__init__(name, region, network)
        self.contact = contact
        self.config = config
        self._contacts: List[str] = contacts
        self._clock = self.scheduler.clock
        self._read_size = MESSAGE_HEADER_BYTES + KEY_SIZE_BYTES + 8
        self._write_base = MESSAGE_HEADER_BYTES + KEY_SIZE_BYTES
        self._timeout_ms = config.client_timeout_ms
        #: The quorum sizes an operation may ask for.
        self._quorums = range(1, config.replication_factor + 1)
        self.reads_sent = 0
        self.writes_sent = 0
        # Record accounting behind ``outstanding()``: failover re-sends by
        # kind (every one acquires a record), records retired by kind, and
        # how many of the retired were such re-sends.
        self._read_resends = 0
        self._write_resends = 0
        self._reads_retired = 0
        self._writes_retired = 0
        self._resends_retired = 0
        # Fault-path instrumentation (stays zero with timeouts disabled).
        self.retries = 0
        self.failed_requests = 0
        #: Preliminary views that arrived after the final response — the
        #: client-side analogue of ``Correctable.discarded_updates``.
        self.late_preliminaries = 0
        # Continuations, bound once: coordinators pass these to their
        # sends, and an instance-attribute load avoids materializing a new
        # bound method per reply hop.
        self._fused_read_preliminary = self._fused_read_preliminary
        self._fused_final = self._fused_final
        self._fused_error = self._fused_error
        self._fused_request_timeout = self._fused_request_timeout

    # -- issuing operations -------------------------------------------------
    def outstanding(self) -> Tuple[int, int, int]:
        """``(read records, write records, operations)`` still out: records
        acquired for this client and not yet retired, and operations whose
        first record is among them.  All zero once a run has drained."""
        reads = self.reads_sent + self._read_resends - self._reads_retired
        writes = self.writes_sent + self._write_resends - self._writes_retired
        resends = (self._read_resends + self._write_resends
                   - self._resends_retired)
        return reads, writes, reads + writes - resends

    def check_quorum(self, quorum: int, kind: str) -> None:
        """Refuse a quorum no operation could assemble: with timeouts off it
        would never complete, and pin its record forever."""
        if quorum not in self._quorums:
            raise ValueError(
                f"{kind} quorum {quorum} outside 1..{self._quorums[-1]} "
                f"(the replication factor)")

    def lean_read(self, key: str, r: int, icg: bool, sink: Any) -> FusedRead:
        """Issue a read completing into ``sink``; returns its record."""
        if r not in self._quorums:
            self.check_quorum(r, "read")
        self.reads_sent += 1
        coordinator = self._coordinator
        rec = FusedRead.acquire()
        rec.client = self
        rec.op = rec
        rec.coordinator = coordinator
        rec.key = key
        rec.r = r
        rec.icg = icg
        rec.sink = sink
        rec.sent_at = self._clock._now
        # The count starts at the open operation plus the request hop (when
        # it was not dropped at this end) plus the client timer.
        sent = self.network.fused_send_to(
            self, coordinator.name, self._read_size,
            coordinator._fused_client_read, rec.args)
        if self._timeout_ms:
            rec.timer = self.scheduler.schedule(
                self._timeout_ms, self._fused_request_timeout, rec)
            rec.refs = sent + 2
        else:
            rec.refs = sent + 1
        return rec

    def lean_write(self, key: str, value: Any, w: int, sink: Any) -> FusedWrite:
        """Issue a write completing into ``sink``; returns its record."""
        if w not in self._quorums:
            self.check_quorum(w, "write")
        self.writes_sent += 1
        coordinator = self._coordinator
        rec = FusedWrite.acquire()
        rec.client = self
        rec.op = rec
        rec.coordinator = coordinator
        rec.key = key
        rec.value = value
        rec.w = w
        rec.sink = sink
        rec.sent_at = self._clock._now
        # A YCSB update writes a single field, so the request is sized by the
        # written payload, measured once here for every hop (reads, in
        # contrast, return the whole record and are sized by the replica).
        vbytes = rec.value_bytes = (
            len(value) if type(value) is str and value.isascii()
            else estimate_payload_size(value))
        sent = self.network.fused_send_to(
            self, coordinator.name, self._write_base + vbytes,
            coordinator._fused_client_write, rec.args)
        if self._timeout_ms:
            rec.timer = self.scheduler.schedule(
                self._timeout_ms, self._fused_request_timeout, rec)
            rec.refs = sent + 2
        else:
            rec.refs = sent + 1
        return rec

    # -- failover -------------------------------------------------------------
    def _resend(self, op: Any) -> None:
        """Re-issue ``op`` to the next contact in the rotation as a fresh
        attempt record (the previous attempt may still be running at its
        coordinator, and may still answer), then re-arm the client timer."""
        nodes = self._contact_nodes
        contact = nodes[op.attempts % len(nodes)]
        rec = type(op).acquire()
        rec.client = self
        rec.op = op
        rec.coordinator = contact
        rec.key = op.key
        if type(op) is FusedRead:
            self._read_resends += 1
            rec.r = op.r
            rec.icg = op.icg
            size = self._read_size
            entry = contact._fused_client_read
        else:
            self._write_resends += 1
            rec.value = op.value
            rec.value_bytes = op.value_bytes
            rec.w = op.w
            size = self._write_base + op.value_bytes
            entry = contact._fused_client_write
        op.refs += 1  # the attempt, until it retires
        if self.network.fused_send_to(self, contact.name, size, entry,
                                      rec.args):
            rec.refs = 1
        else:
            rec.release()
        if self._timeout_ms:
            op.timer = self.scheduler.schedule(
                self._timeout_ms, self._fused_request_timeout, op)
            op.refs += 1

    def _fused_request_timeout(self, op: Any) -> None:
        """No final response within ``client_timeout_ms``: fail over to the
        next contact, or give up once the retry budget is spent."""
        op.timer = None
        if op.attempts < self.config.client_retries:
            op.attempts += 1
            self.retries += 1
            op.refs -= 1  # the timer, now spent
            self._resend(op)
            return
        self.failed_requests += 1
        self._fail(op, op, "client timeout: no coordinator responded")

    def _fail(self, rec: Any, op: Any, error: str) -> None:
        """Complete ``op`` with ``error``; ``rec`` is the record whose hop or
        timer brought the news."""
        op.done = True
        sink = op.sink
        latency_ms = self._clock._now - op.sent_at
        rec.unref()
        op.unref()
        sink.deliver_error(error, latency_ms)

    # -- responses ------------------------------------------------------------
    # Network continuations: each starts with the delivery preamble (the
    # alive check plus delivered/dropped counters).  ``rec`` is the attempt
    # that answered, ``rec.op`` the operation it answers for; an operation
    # completes once, whichever attempt gets there first.  References are
    # dropped before the sink runs — a sink may issue the next operation,
    # which is allowed to reuse the record — so everything the delivery
    # needs is captured first.
    def _fused_read_preliminary(self, rec: FusedRead, replica: str) -> None:
        net = self.network
        if not self.alive:
            net.messages_dropped += 1
            rec.unref()
            return
        net.messages_delivered += 1
        op = rec.op
        if op.done:
            # Outlived the final response (the coordinator was slowed, the
            # flush job lost the race, or a later attempt won).
            self.late_preliminaries += 1
            rec.unref()
            return
        version = rec.preliminary
        if version is None:
            value = timestamp = None
        else:
            value = version.value
            timestamp = version.timestamp
        refs = rec.refs = rec.refs - 1
        if not refs:
            rec.release()
        op.sink.deliver_preliminary(
            value, timestamp, self._clock._now - op.sent_at, replica)

    def _fused_final(self, rec: Any, is_confirmation: bool = False) -> None:
        net = self.network
        if not self.alive:
            net.messages_dropped += 1
            rec.unref()
            return
        net.messages_delivered += 1
        op = rec.op
        if op.done:
            rec.unref()
            return
        op.done = True
        timer = op.timer
        if timer is not None:
            timer.cancel()
            op.timer = None
            op.refs -= 1
        if type(rec) is FusedWrite:
            # A write's ack: a final carrying the written value.
            value = rec.value
            timestamp = rec.version.timestamp
        else:
            # The answering attempt's newest version; a confirmation elided
            # only its payload, which equals the preliminary that attempt
            # flushed (whether or not that preliminary got here first).
            version = rec.best
            if version is None:
                value = timestamp = None
            else:
                value = version.value
                timestamp = version.timestamp
        sink = op.sink
        sent_at = op.sent_at
        degraded = rec.degraded
        if op is rec:
            # This hop and the open operation.
            refs = rec.refs = rec.refs - 2
            if not refs:
                rec.release()
        else:
            rec.unref()
            op.unref()
        sink.deliver_final(
            value, timestamp, self._clock._now - sent_at,
            is_confirmation, degraded)

    def _fused_error(self, rec: Any, error: str, retryable: bool) -> None:
        net = self.network
        if not self.alive:
            net.messages_dropped += 1
            rec.unref()
            return
        net.messages_delivered += 1
        op = rec.op
        if op.done:
            rec.unref()
            return
        timer = op.timer
        if timer is not None:
            timer.cancel()
            op.timer = None
            op.refs -= 1
        # A coordinator that left the ring answers with a *retryable* error:
        # rotate to the next contact instead of failing the request (the
        # rebalance analogue of timeout-driven failover).
        if retryable and len(self._contacts) > 1 \
                and op.attempts < self.config.client_retries:
            op.attempts += 1
            self.retries += 1
            rec.unref()
            self._resend(op)
            return
        self.failed_requests += 1
        self._fail(rec, op, error)
