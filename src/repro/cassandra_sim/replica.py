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

Message kinds still handled:

* ``write_req`` — read repair, one-way from a coordinator to a replica that
  answered a quorum read with an older version (it belongs to no client
  operation, so it has no record to ride on);
* ``stream_data`` / ``stream_ack`` — range streaming during a ring
  rebalance (stop-and-wait batches from the range's source to its gainer).

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
from typing import Callable, Dict, Sequence, Tuple

from repro.cassandra_sim.config import CassandraConfig
from repro.cassandra_sim.coordinator import FusedRead, FusedWrite
from repro.cassandra_sim.partitioner import RingPartitioner, StreamTask
from repro.cassandra_sim.reads import ReadCoordinator
from repro.cassandra_sim.storage import (ColumnarTable, KeySpace,
                                         VersionedValue)
from repro.cassandra_sim.writes import _ACK_BYTES, WriteCoordinator
from repro.sim.network import (MESSAGE_HEADER_BYTES, Message, Network,
                               estimate_payload_size)
from repro.sim.node import Node


@dataclass(slots=True)
class _StreamState:
    """Source-side progress of one range-transfer task."""

    stream_id: int
    task: StreamTask
    on_complete: Callable[[StreamTask], None]
    #: The key ids of the task's rows in the source table, in sorted-key
    #: order.
    rows: Sequence[int] = ()
    cursor: int = 0


class CassandraReplica(ReadCoordinator, WriteCoordinator, Node):
    """One storage node: local LWW table plus coordinator logic."""

    def __init__(self, name: str, region: str, network: Network,
                 config: CassandraConfig, partitioner: RingPartitioner,
                 keyspace: KeySpace) -> None:
        super().__init__(name, region, network)
        self.config = config
        # Message-size bases, precomputed once: every fused hop charges one
        # of these, and the config fields never change after construction.
        self._req_base = MESSAGE_HEADER_BYTES + config.key_size_bytes
        self._resp_base = MESSAGE_HEADER_BYTES + config.response_overhead_bytes
        self._conf_base = MESSAGE_HEADER_BYTES + config.confirmation_bytes
        self.partitioner = partitioner
        self.table = ColumnarTable(keyspace)
        #: Ring membership state: ``serving`` (normal), ``bootstrapping``
        #: (joining: applies forwarded writes and streamed data, serves no
        #: client traffic yet), ``retired`` (left the ring: rejects
        #: everything with ``stale_epoch`` so coordinators re-route).
        self.ring_state = "serving"
        self._stream_ids = itertools.count(1)
        self._streams: Dict[int, _StreamState] = {}
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

    def _drop_routes(self) -> None:
        super()._drop_routes()
        self._drop_plans()

    def _drop_plans(self) -> None:
        """Forget every plan (the routes or the ring epoch moved)."""
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
        caches are dropped by ring-epoch bumps (checked here) and by the
        network dropping its routes (pushed: :meth:`_drop_routes`), which
        every latency edit does, so the order is always the current one.
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
        cost = self.config.read_service_ms * self.slowdown_factor
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
        cost = self.config.write_service_ms * self.slowdown_factor
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
        self._enqueue(self.config.write_service_ms, self._apply_remote_write,
                      (payload["key"], payload["version"]))

    def _apply_remote_write(self, key: str, version: VersionedValue) -> None:
        if self.ring_state == "retired":
            self.stale_rejections += 1
            return
        self.table.apply(key, version)

    # -- range streaming (ring rebalance) ---------------------------------------
    def begin_stream(self, task: StreamTask,
                     on_complete: Callable[[StreamTask], None]) -> int:
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
        stream_id = next(self._stream_ids)
        state = _StreamState(stream_id=stream_id, task=task,
                             on_complete=on_complete)
        self._streams[stream_id] = state
        self._enqueue(self.config.stream_scan_ms, self._stream_scan, (state,))
        return stream_id

    def _stream_scan(self, state: _StreamState) -> None:
        task = state.task
        state.rows = self.table.rows_in_range(task.start_token, task.end_token)
        self._stream_send_batch(state)

    def _stream_send_batch(self, state: _StreamState) -> None:
        if state.cursor >= len(state.rows):
            del self._streams[state.stream_id]
            state.on_complete(state.task)
            return
        config = self.config
        rows = state.rows[state.cursor:
                          state.cursor + config.stream_batch_items]
        state.cursor += len(rows)
        # Key ids, not keys: source and target share the cluster's key
        # space.  The wire still carries a key per row.
        versions = self.table.versions_of(rows)
        values, unread, size = self.table.values_and_unread(rows, versions)
        self.keys_streamed_out += len(rows)
        self.send(state.task.target, "stream_data",
                  {"stream_id": state.stream_id, "rows": rows,
                   "versions": versions},
                  size_bytes=(MESSAGE_HEADER_BYTES
                              + config.key_size_bytes * len(rows)
                              + self._values_bytes(values)
                              + unread * max(size, config.value_size_bytes)))

    def on_stream_data(self, message: Message) -> None:
        payload = message.payload
        self._enqueue(self.config.stream_apply_ms_per_item
                      * max(1, len(payload["rows"])),
                      self._apply_stream_batch, (message.src, payload))

    def _apply_stream_batch(self, source: str, payload: dict) -> None:
        rows = payload["rows"]
        self.table.merge(rows, payload["versions"])
        self.keys_streamed_in += len(rows)
        self.send(source, "stream_ack", {"stream_id": payload["stream_id"]},
                  size_bytes=MESSAGE_HEADER_BYTES + 10)

    def on_stream_ack(self, message: Message) -> None:
        state = self._streams.get(message.payload["stream_id"])
        if state is None:
            return
        self._enqueue(self.config.stream_batch_ms, self._stream_send_batch,
                      (state,))
