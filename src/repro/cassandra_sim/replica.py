"""A Cassandra replica node (which also acts as a coordinator).

Client requests do not travel as messages: one pooled record
(:class:`~repro.cassandra_sim.coordinator.FusedRead` /
:class:`~repro.cassandra_sim.coordinator.FusedWrite`) carries an operation
from the client through its coordinator to the replicas and back, each hop a
pre-bound continuation scheduled at the delivery instant
(:meth:`Network.fused_send_to`) — no per-hop Message, payload dict or session
map.  The coordinator's hops are in :mod:`~repro.cassandra_sim.reads` and
:mod:`~repro.cassandra_sim.writes`; here are the node's state, the fan-out
plan both send through and the replica's side, ``_fused_read_req`` and
``_fused_write_req``.  The same records run every configuration: fault-free,
with timeouts, failover and read repair, and across ring changes.

The one Message kind still handled is ``write_req``: read repair, one-way
from a coordinator to a replica that answered a quorum read with an older
version (it belongs to no client operation, so it has no record to ride
on).  Range streaming rides its own record, a :class:`_Stream`: stop-and-wait
batches from the range's source to its gainer, each hop a continuation.

Ring membership: every replica carries a ``ring_state`` (``serving``,
``bootstrapping`` while joining, ``retired`` after leaving).  A replica that
no longer owns a key — because the range streamed away in a committed
rebalance — rejects the request as stale and the coordinator retries
against the post-rebalance preference list (every re-send walks the
fan-out plan of the ring epoch current *then*).

A crashed coordinator forgets what it was coordinating: records are stamped
with the coordinator's incarnation, and replies or timers that outlive a
crash find a stamp from an incarnation that is gone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappush
from operator import is_
from typing import Callable, Dict, List, Sequence, Tuple

from repro.cassandra_sim.config import (
    CONFIRMATION_BYTES, READ_SERVICE_MS, RESPONSE_OVERHEAD_BYTES,
    STREAM_APPLY_MS_PER_ITEM, STREAM_BATCH_MS, WRITE_SERVICE_MS,
    CassandraConfig)
from repro.cassandra_sim.coordinator import FusedRead, FusedWrite
from repro.cassandra_sim.partitioner import RingPartitioner, StreamTask
from repro.cassandra_sim.reads import ReadCoordinator
from repro.cassandra_sim.storage import (ColumnarTable, KeySpace,
                                         VersionedValue)
from repro.cassandra_sim.writes import _ACK_BYTES, WriteCoordinator
from repro.sim.network import (KEY_SIZE_BYTES, MESSAGE_HEADER_BYTES, Message,
                               Network, estimate_payload_size)
from repro.sim.node import Node


@dataclass(slots=True, eq=False)
class _Stream:
    """One range-transfer task, registered at its source and its target.

    ``batch`` (key ids, and the ``versions`` sent) is the one batch out.  A
    batch or ack dropped parks the stream until a party recovers and sends
    the batch again (an LWW merge is idempotent).
    """

    task: StreamTask
    source: "CassandraReplica"
    target: "CassandraReplica"
    on_complete: Callable[[StreamTask], None]
    #: The key ids of the task's rows in the source table, in sorted-key
    #: order.
    rows: Sequence[int] = ()
    cursor: int = 0
    batch: Sequence[int] = ()
    versions: Sequence[VersionedValue] = ()
    parked: bool = False


class CassandraReplica(ReadCoordinator, WriteCoordinator, Node):
    """One storage node: local LWW table plus coordinator logic."""

    def __init__(self, name: str, region: str, network: Network,
                 config: CassandraConfig, partitioner: RingPartitioner,
                 keyspace: KeySpace) -> None:
        super().__init__(name, region, network)
        self.config = config
        # Message-size bases, precomputed once: every fused hop charges one
        # of these.
        self._req_base = MESSAGE_HEADER_BYTES + KEY_SIZE_BYTES
        self._resp_base = MESSAGE_HEADER_BYTES + RESPONSE_OVERHEAD_BYTES
        self._conf_base = MESSAGE_HEADER_BYTES + CONFIRMATION_BYTES
        self.partitioner = partitioner
        self.table = ColumnarTable(keyspace)
        #: Ring membership state: ``serving`` (normal), ``bootstrapping``
        #: (joining: applies forwarded writes and streamed data, serves no
        #: client traffic yet), ``retired`` (left the ring: rejects
        #: everything with ``stale_epoch`` so coordinators re-route).
        self.ring_state = "serving"
        #: The streams this node is the source or the target of.
        self._streams: List[_Stream] = []
        self._write_seq = itertools.count(1)
        #: key -> (local_participant, fused fan-out targets); see _fused_plan.
        self._fused_plans: Dict[str, tuple] = {}
        #: preference tuple -> the plan every key of that ring slot shares.
        self._slot_plans: Dict[Tuple[str, ...], tuple] = {}
        #: Ring epoch the plans were built against.
        self._plan_ring_version = -1
        #: Bumped by every crash: a record stamped with an older value is an
        #: operation this node forgot it was coordinating.
        self._incarnation = 0
        #: Whether reads keep per-replica responses by name (read repair
        #: needs to know who is stale, timeout re-solicits who answered).
        self._track_responses = (config.read_repair
                                 or config.read_timeout_ms > 0)
        # Instrumentation used by the benchmarks.
        self.reads_coordinated = 0
        self.writes_coordinated = 0
        self.preliminaries_flushed = 0
        self.confirmations_sent = 0
        # Fault-path instrumentation (stays zero with timeouts disabled).
        self.read_retries = 0
        self.write_retries = 0
        self.reads_downgraded = 0
        self.writes_downgraded = 0
        self.reads_failed = 0
        self.writes_failed = 0
        # Rebalance instrumentation (stays zero on a static ring).
        self.stale_rejections = 0
        self.stale_epoch_retries = 0
        self.writes_forwarded = 0
        self.keys_streamed_out = 0
        self.keys_streamed_in = 0
        # Continuations, bound once: every send passes one of these as its
        # delivery callback, and an instance-attribute load here avoids
        # materializing a fresh bound method per hop.
        self._fused_client_read = self._fused_client_read
        self._fused_client_write = self._fused_client_write
        self._fused_read_req = self._fused_read_req
        self._fused_write_req = self._fused_write_req
        self._fused_read_resp = self._fused_read_resp
        self._fused_replica_ack = self._fused_replica_ack
        self._fused_read_stale = self._fused_read_stale
        self._fused_write_stale = self._fused_write_stale
        self._fused_read_timeout = self._fused_read_timeout
        self._fused_write_timeout = self._fused_write_timeout
        self._fused_coordinate_read = self._fused_coordinate_read
        self._fused_coordinate_write = self._fused_coordinate_write
        self._fused_serve_read = self._fused_serve_read
        self._fused_apply_write = self._fused_apply_write
        self._fused_flush_preliminary = self._fused_flush_preliminary

    # -- lifecycle -------------------------------------------------------------
    def crash(self) -> None:
        """Stop the node; the operations it was coordinating die with it
        (their replies and timers still arrive, find a record stamped by an
        incarnation that is gone, and do nothing)."""
        super().crash()
        self._incarnation += 1

    def reconnected(self) -> None:
        """Each parked stream this node is a party of sends its
        unacknowledged batch again once both parties are up and connected."""
        for stream in self._streams:
            source, target = stream.source, stream.target
            if stream.parked and source.alive and target.alive and not \
                    self.network.is_partitioned(source.name, target.name):
                source._stream_send(stream)

    def _drop_plans(self) -> None:
        """Forget every plan (the ring epoch moved)."""
        self._fused_plans.clear()
        self._slot_plans.clear()
        self._plan_ring_version = self.partitioner.version

    # -- helpers --------------------------------------------------------------
    def _value_bytes(self, value: object) -> int:
        # Stored values are ASCII strings in every workload; size them with
        # ``len`` and only fall back to the generic payload walker otherwise.
        if type(value) is str and value.isascii():
            size = len(value)
        else:
            size = estimate_payload_size(value)
        return max(self.config.value_size_bytes, size)

    def _values_bytes(self, values: Sequence[object]) -> int:
        """:meth:`_value_bytes` summed over ``values``: ``len`` mapped over
        them when every one is an ASCII ``str``."""
        if (all(map(is_, map(type, values), itertools.repeat(str)))
                and all(map(str.isascii, values))):
            return sum(map(max, map(len, values),
                           itertools.repeat(self.config.value_size_bytes)))
        return sum(map(self._value_bytes, values))

    # -- the request path ------------------------------------------------------
    # Every network continuation (here and in the two coordinators) starts
    # with the delivery preamble (the alive check and delivered/dropped
    # counters); queue jobs go through Node._enqueue.  Each continuation also
    # settles the record's reference count (see coordinator._PooledRecord):
    # it consumes the reference it arrived on and adds one per hop, job or
    # timer it schedules — where the two cancel out, neither is written.

    def _fused_plan(self, key: str) -> tuple:
        """``(local_participant, targets)`` for ``key``.

        ``targets`` holds ``(node, route, read_req, write_req)`` per other
        replica, closest first (by RTT, then by name): the endpoint object,
        its cached network route, and the pre-bound delivery continuations.
        A plan depends only on the key's preference tuple, so it is built
        once per ring slot and the same object is cached per key.  Both
        caches are dropped by ring-epoch bumps (checked here); the routes
        and the RTTs that order the targets are fixed once the network is
        built, so the order is always the current one.
        The cold paths (stale rejections, timeouts) walk the same targets.
        """
        if self._plan_ring_version != self.partitioner.version:
            self._drop_plans()
        plan = self._fused_plans.get(key)
        if plan is None:
            replicas = self.partitioner.replicas_for(key)
            plan = self._slot_plans.get(replicas)
            if plan is None:
                network = self.network
                rtt = network.topology.rtt
                region = self.region
                plan = self._slot_plans[replicas] = (
                    self.name in replicas, tuple(
                        (node, network.fused_route(self.name, node.name),
                         node._fused_read_req, node._fused_write_req)
                        for node in sorted(
                            (network.node(name) for name in replicas
                             if name != self.name),
                            key=lambda node: (rtt(region, node.region),
                                              node.name))))
            if len(self._fused_plans) >= 65536:
                self._fused_plans.clear()
            self._fused_plans[key] = plan
        return plan

    def _reject_client(self, rec) -> None:
        """A retired (or still bootstrapping) node no longer coordinates:
        the client rotates to its next contact."""
        self.stale_rejections += 1
        client = rec.client
        if not self.network.fused_send_to(
                self, client.name, self._resp_base, client._fused_error,
                (rec, f"coordinator {self.name} left the ring", True)):
            rec.unref()

    # -- replica-side service -------------------------------------------------
    def _fused_read_req(self, rec: FusedRead) -> None:
        net = self.network
        if not self.alive:
            net.messages_dropped += 1
            rec.unref()
            return
        net.messages_delivered += 1
        # Node._enqueue, inlined (see _fused_client_read).
        cost = READ_SERVICE_MS * self.slowdown_factor
        queue = self.queue
        scheduler = queue._scheduler
        now = scheduler.clock._now
        busy = queue._busy_until
        start = now if now > busy else busy
        finish = start + cost
        queue._busy_until = finish
        queue.jobs_processed += 1
        queue.busy_time += cost
        seq = scheduler._seq
        scheduler._seq = seq + 1
        heappush(scheduler._heap,
                 (finish, seq, self._fused_serve_read, rec.args, None))

    def _fused_serve_read(self, rec: FusedRead) -> None:
        config = self.config
        coordinator = rec.coordinator
        if self.ring_state != "serving" \
                or not self.partitioner.is_replica(self.name, rec.key):
            # The key's range streamed away (or this node left the ring)
            # after the coordinator picked its preference list: reject so it
            # retries against the post-rebalance owners.
            self.stale_rejections += 1
            if not self.network.fused_send_to(
                    self, coordinator.name, self._resp_base,
                    coordinator._fused_read_stale, rec.args):
                rec.unref()
            return
        version = self.table.get(rec.key)
        # _value_bytes, inlined (one remote response per contacted replica).
        if version is None:
            vbytes = 8
        else:
            value = version.value
            vbytes = (len(value) if type(value) is str and value.isascii()
                      else estimate_payload_size(value))
            if vbytes < config.value_size_bytes:
                vbytes = config.value_size_bytes
        if not self.network.fused_send_to(
                self, coordinator.name, self._resp_base + vbytes,
                coordinator._fused_read_resp, (rec, version, self.name)):
            rec.unref()

    def _fused_write_req(self, rec: FusedWrite, ack: bool) -> None:
        net = self.network
        if not self.alive:
            net.messages_dropped += 1
            rec.unref()
            return
        net.messages_delivered += 1
        # Node._enqueue, inlined (see _fused_client_read).
        cost = WRITE_SERVICE_MS * self.slowdown_factor
        queue = self.queue
        scheduler = queue._scheduler
        now = scheduler.clock._now
        busy = queue._busy_until
        start = now if now > busy else busy
        finish = start + cost
        queue._busy_until = finish
        queue.jobs_processed += 1
        queue.busy_time += cost
        seq = scheduler._seq
        scheduler._seq = seq + 1
        heappush(scheduler._heap,
                 (finish, seq, self._fused_apply_write, (rec, ack), None))

    def _fused_apply_write(self, rec: FusedWrite, ack: bool) -> None:
        coordinator = rec.coordinator
        if self.ring_state == "retired":
            # This node streamed its data away and left the ring; reject so
            # the coordinator re-replicates to the post-rebalance owners.
            self.stale_rejections += 1
            reply = coordinator._fused_write_stale
            args = rec.args
        else:
            self.table.apply(rec.key, rec.version)
            reply = coordinator._fused_replica_ack
            args = (rec, self.name)
        if not ack or not self.network.fused_send_to(
                self, coordinator.name, _ACK_BYTES, reply, args):
            rec.unref()

    # -- read repair (the one request that is still a Message) -----------------
    def on_write_req(self, message: Message) -> None:
        payload = message.payload
        self._enqueue(WRITE_SERVICE_MS, self._apply_remote_write,
                      (payload["key"], payload["version"]))

    def _apply_remote_write(self, key: str, version: VersionedValue) -> None:
        if self.ring_state == "retired":
            self.stale_rejections += 1
            return
        self.table.apply(key, version)

    # -- range streaming (ring rebalance) ---------------------------------------
    def begin_stream(self, task: StreamTask,
                     on_complete: Callable[[StreamTask], None]) -> None:
        """Start shipping ``task``'s key range to its target node.

        Stop-and-wait batches of ``config.stream_batch_items`` items: the
        scan and each batch are charged to this node's processing queue, so
        streaming competes with foreground traffic for the same server —
        which is exactly the interference fig15 measures.  ``on_complete``
        fires (on the source's event) once the final batch is acknowledged.
        """
        if task.source != self.name:
            raise ValueError(
                f"stream task sourced at {task.source!r} given to {self.name!r}")
        stream = _Stream(task, self, self.network.node(task.target),
                         on_complete)
        self._streams.append(stream)
        stream.target._streams.append(stream)
        self._enqueue(self.config.stream_scan_ms, self._stream_scan, (stream,))

    def _stream_scan(self, stream: _Stream) -> None:
        task = stream.task
        stream.rows = self.table.rows_in_range(task.start_token, task.end_token)
        self._stream_next(stream)

    def _stream_next(self, stream: _Stream) -> None:
        """Send the batch after the acknowledged one, or finish; a stream
        this node dropped (its join was aborted) sends nothing more."""
        if stream not in self._streams:
            return
        if stream.cursor >= len(stream.rows):
            self._streams.remove(stream)
            stream.target._streams.remove(stream)
            stream.on_complete(stream.task)
            return
        rows = stream.batch = stream.rows[
            stream.cursor:stream.cursor + self.config.stream_batch_items]
        stream.cursor += len(rows)
        self.keys_streamed_out += len(rows)
        self._stream_send(stream)

    def _stream_send(self, stream: _Stream) -> None:
        """Send ``stream.batch`` with its rows' versions as of now; a drop
        parks the stream."""
        config = self.config
        rows = stream.batch
        # Key ids, not keys: source and target share the cluster's key
        # space.  The wire still carries a key per row.
        versions = stream.versions = self.table.versions_of(rows)
        values, unread, size = self.table.values_and_unread(rows, versions)
        target = stream.target
        stream.parked = not self.network.fused_send_to(
            self, target.name,
            MESSAGE_HEADER_BYTES + KEY_SIZE_BYTES * len(rows)
            + self._values_bytes(values)
            + unread * max(size, config.value_size_bytes),
            target._stream_hop,
            (stream, STREAM_APPLY_MS_PER_ITEM * max(1, len(rows)),
             target._stream_apply))

    def _stream_hop(self, stream: _Stream, cost: float,
                    job: Callable[[_Stream], None]) -> None:
        """A batch or an ack arrives: queue ``job``, or park the stream if
        this node is down."""
        net = self.network
        if not self.alive:
            net.messages_dropped += 1
            stream.parked = True
            return
        net.messages_delivered += 1
        self._enqueue(cost, job, (stream,))

    def _stream_apply(self, stream: _Stream) -> None:
        rows = stream.batch
        self.table.merge(rows, stream.versions)
        self.keys_streamed_in += len(rows)
        source = stream.source
        stream.parked = not self.network.fused_send_to(
            self, source.name, MESSAGE_HEADER_BYTES + 10, source._stream_hop,
            (stream, STREAM_BATCH_MS, source._stream_next))

    def drop_streams(self) -> None:
        """Forget the streams to this node, here and at their sources (its
        join was aborted)."""
        for stream in self._streams:
            stream.source._streams.remove(stream)
        self._streams.clear()
