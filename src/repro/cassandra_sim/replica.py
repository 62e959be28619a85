"""A Cassandra replica node (which also acts as a coordinator).

Client requests do not travel as messages.  One pooled record
(:class:`~repro.cassandra_sim.coordinator.FusedRead` /
:class:`~repro.cassandra_sim.coordinator.FusedWrite`) carries an operation
from the client through its coordinator to the replicas and back, each hop a
pre-bound continuation scheduled at the delivery instant
(:meth:`Network.fused_send_to`): ``_fused_client_read/_write`` (a request
arrives; this replica becomes its coordinator), ``_fused_read_req`` /
``_fused_read_resp`` (coordinator ↔ replica data reads), ``_fused_write_req``
/ ``_fused_replica_ack`` (write application — the copies beyond W are the
asynchronous replication path), the ``*_stale`` rejections and the
``*_timeout`` timers (retry, then downgrade).  The same records run every
configuration: fault-free, with timeouts, failover and read repair, and
across ring changes.

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
preference list of the ring epoch current *then*).  While a change is in
flight, coordinators forward writes to the nodes gaining the key's range
(without counting them towards the write quorum), which is what makes
acknowledged writes survive any join/decommission.

A crashed coordinator forgets what it was coordinating: records are stamped
with the coordinator's incarnation, and replies or timers that outlive a
crash find a stamp from an incarnation that is gone.

Correctable Cassandra behaviour (Section 5.2): when a client read carries the
``icg`` flag, the coordinator performs *preliminary flushing* — an extra job
on its processing queue that sends the first locally available version to the
client before the quorum completes — and, if the confirmation optimization is
enabled, replaces an identical final response with a small confirmation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappush
from operator import is_
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cassandra_sim.config import CassandraConfig
from repro.cassandra_sim.coordinator import FusedRead, FusedWrite
from repro.cassandra_sim.partitioner import RingPartitioner, StreamTask
from repro.cassandra_sim.storage import ColumnarTable, KeySpace
from repro.cassandra_sim.versions import VersionedValue
from repro.sim.network import (LinkStats, MESSAGE_HEADER_BYTES, Message,
                               Network, estimate_payload_size)
from repro.sim.node import Node

#: Wire size of the small fixed acknowledgements (write_ack and friends).
_ACK_BYTES = MESSAGE_HEADER_BYTES + 10


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


class CassandraReplica(Node):
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
        #: preference tuple -> the other replicas, closest first.
        self._distance_cache: Dict[Tuple[str, ...], List[str]] = {}
        #: Ring epoch the distance cache was built against.
        self._distance_version = partitioner.version
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
    def _other_replicas_by_distance(self, key: str) -> List[str]:
        """Replicas for ``key`` other than this node, closest first.

        Cached per preference tuple — every key of a ring slot shares one
        entry, so there are at most ring-slots entries per epoch — and
        dropped whenever the partitioner version moves.  The returned list
        is shared — treat it as read-only.
        """
        partitioner = self.partitioner
        if self._distance_version != partitioner.version:
            self._distance_cache.clear()
            self._distance_version = partitioner.version
        replicas = partitioner.replicas_for(key)
        ordered = self._distance_cache.get(replicas)
        if ordered is None:
            rtt = self.network.topology.rtt
            node = self.network.node
            ordered = self._distance_cache[replicas] = sorted(
                (name for name in replicas if name != self.name),
                key=lambda name: (rtt(self.region, node(name).region), name))
        return ordered

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
    # One pooled record (FusedRead/FusedWrite) carries an operation through
    # pre-bound continuations: no per-hop Message, payload dict or session
    # map.  Every network continuation below starts with the delivery
    # preamble (the alive check and delivered/dropped counters); queue jobs
    # go through Node._enqueue.  Each continuation also settles the record's
    # reference count (see coordinator._PooledRecord): it consumes the
    # reference it arrived on and adds one per hop, job or timer it
    # schedules — where the two cancel out, neither is written.

    def _fused_plan(self, key: str) -> tuple:
        """``(local_participant, targets)`` for ``key``.

        ``targets`` holds ``(node, route, read_req, write_req)`` per other
        replica in distance order: the endpoint object, its cached network
        route, and the pre-bound delivery continuations.  A plan depends
        only on the key's preference tuple, so it is built once per ring
        slot and the same object is cached per key.  Both caches are
        dropped by ring-epoch bumps (checked here) and by the network
        dropping its routes (pushed: :meth:`_drop_routes`).
        """
        if self._plan_ring_version != self.partitioner.version:
            self._drop_plans()
        plan = self._fused_plans.get(key)
        if plan is None:
            replicas = self.partitioner.replicas_for(key)
            plan = self._slot_plans.get(replicas)
            if plan is None:
                network = self.network
                plan = self._slot_plans[replicas] = (
                    self.name in replicas, tuple(
                        (node, network.fused_route(self.name, node.name),
                         node._fused_read_req, node._fused_write_req)
                        for node in map(network.node,
                                        self._other_replicas_by_distance(
                                            key))))
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

    # -- reads -----------------------------------------------------------------
    def _fused_client_read(self, rec: FusedRead) -> None:
        net = self.network
        if not self.alive:
            net.messages_dropped += 1
            rec.unref()
            return
        net.messages_delivered += 1
        if self.ring_state != "serving":
            self._reject_client(rec)
            return
        self.reads_coordinated += 1
        rec.incarnation = self._incarnation
        # Node._enqueue, inlined: service charge plus scheduler insert with
        # no intermediate frames — this preamble runs once per read.
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
                 (finish, seq, self._fused_coordinate_read, rec.args, None))

    def _fused_coordinate_read(self, rec: FusedRead) -> None:
        key = rec.key
        config = self.config
        # _fused_plan, inlined down to the epoch check + dict probe (the
        # builder in _fused_plan stays the miss path).
        network = self.network
        if self._plan_ring_version != self.partitioner.version:
            self._drop_plans()
        plan = self._fused_plans.get(key)
        if plan is None:
            plan = self._fused_plan(key)
        local, targets = plan
        refs = rec.refs - 1  # this job
        if local:
            version = self.table.get(key)
            rec.local = True
            rec.local_version = version
            rec.count = 1
            if version is not None:
                rec.best = version
            rec.contacted.append(self.name)
            if self._track_responses:
                rec.responses[self.name] = version
            if rec.icg:
                # Preliminary flushing: extra coordinator work, then leak
                # the local version to the client before the quorum
                # completes.  Node._enqueue, inlined: the flush job runs
                # once per ICG read, right on the hot path.
                refs += 1
                cost = config.preliminary_flush_ms * self.slowdown_factor
                queue = self.queue
                scheduler = queue._scheduler
                now = scheduler.clock._now
                busy = queue._busy_until
                begin = now if now > busy else busy
                finish = begin + cost
                queue._busy_until = finish
                queue.jobs_processed += 1
                queue.busy_time += cost
                seq = scheduler._seq
                scheduler._seq = seq + 1
                heappush(scheduler._heap,
                         (finish, seq, self._fused_flush_preliminary,
                          rec.args, None))
        remote_needed = rec.r - rec.count
        if remote_needed > 0 and targets:
            if remote_needed < len(targets):
                targets = targets[:remote_needed]
            size = self._req_base
            # Network.fused_send_to, inlined per target minus its route probe
            # (the plan holds the routes).
            net = network
            scheduler = net.scheduler
            clock = scheduler.clock
            heap = scheduler._heap
            jitter_fraction = net._jitter_fraction
            contacted = rec.contacted
            for node, route, read_req, _ in targets:
                contacted.append(node.name)
                src_node, dst_node, stats, base = route
                if not src_node.alive:
                    net.messages_dropped += 1
                    continue
                if stats is None:
                    stats = route[2] = net._links[
                        (src_node.name, dst_node.name)] = LinkStats()
                stats.messages += 1
                stats.bytes += size
                if net._partitioned or net._partitioned_regions:
                    if net.is_partitioned(src_node.name, dst_node.name):
                        net.messages_dropped += 1
                        continue
                if not dst_node.alive:
                    net.messages_dropped += 1
                    continue
                if jitter_fraction > 0:
                    delay = base + jitter_fraction * net._rand() * base
                else:
                    delay = base
                if net._link_extra_ms:
                    delay += net.link_extra_ms(src_node.name, dst_node.name)
                refs += 1
                seq = scheduler._seq
                scheduler._seq = seq + 1
                heappush(heap, (clock._now + delay, seq, read_req, rec.args,
                                None))
        rec.refs = refs
        if rec.count >= rec.r:
            self._fused_finish_read(rec, False)
        elif config.read_timeout_ms > 0:
            rec.quorum_timer = self.scheduler.schedule(
                config.read_timeout_ms, self._fused_read_timeout, rec)
            rec.refs = refs + 1
        if not rec.refs:
            rec.release()

    def _fused_flush_preliminary(self, rec: FusedRead) -> None:
        if rec.final_sent or rec.preliminary_sent:
            # The final overtook this job (queue backlog at the coordinator).
            rec.unref()
            return
        # The *local* version, not the best-so-far: a remote response that
        # beat this flush job must not leak into the preliminary view.
        version = rec.local_version
        rec.preliminary = version
        rec.preliminary_sent = True
        self.preliminaries_flushed += 1
        client = rec.client
        config = self.config
        # _value_bytes, inlined (one preliminary flush per local ICG read).
        if version is None:
            vbytes = 8
        else:
            value = version.value
            vbytes = (len(value) if type(value) is str and value.isascii()
                      else estimate_payload_size(value))
            if vbytes < config.value_size_bytes:
                vbytes = config.value_size_bytes
        if not self.network.fused_send_to(
                self, client.name, self._resp_base + vbytes,
                client._fused_read_preliminary, (rec, self.name)):
            rec.unref()

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

    def _fused_read_resp(self, rec: FusedRead,
                         version: Optional[VersionedValue],
                         replica: str) -> None:
        net = self.network
        if not self.alive:
            net.messages_dropped += 1
            rec.unref()
            return
        net.messages_delivered += 1
        if rec.final_sent or rec.incarnation != self._incarnation:
            rec.unref()
            return
        if self._track_responses:
            # By name: a re-solicited replica may answer twice.
            responses = rec.responses
            responses[replica] = version
            rec.count = len(responses)
        else:
            rec.count += 1
        best = rec.best
        if version is not None and (best is None
                                    or version.timestamp > best.timestamp):
            rec.best = version
        # A coordinator that is not a replica for the key flushes the first
        # remote response as the preliminary view.
        if rec.icg and not rec.preliminary_sent and not rec.local:
            rec.preliminary = version
            rec.preliminary_sent = True
            self.preliminaries_flushed += 1
            client = rec.client
            config = self.config
            # _value_bytes, inlined (first remote response, non-local ICG).
            if version is None:
                vbytes = 8
            else:
                value = version.value
                vbytes = (len(value)
                          if type(value) is str and value.isascii()
                          else estimate_payload_size(value))
                if vbytes < config.value_size_bytes:
                    vbytes = config.value_size_bytes
            if net.fused_send_to(
                    self, client.name, self._resp_base + vbytes,
                    client._fused_read_preliminary, (rec, replica)):
                rec.refs += 1
        if rec.count >= rec.r:
            self._fused_finish_read(rec, False)
        refs = rec.refs = rec.refs - 1
        if not refs:
            rec.release()

    def _fused_finish_read(self, rec: FusedRead, degraded: bool) -> None:
        timer = rec.quorum_timer
        if timer is not None:
            timer.cancel()
            rec.quorum_timer = None
            rec.refs -= 1
        rec.final_sent = True
        if degraded:
            rec.degraded = True
        config = self.config
        newest = rec.best
        matches_preliminary = (
            rec.preliminary_sent
            and ((newest is None and rec.preliminary is None)
                 or (newest is not None and rec.preliminary is not None
                     and newest.value == rec.preliminary.value))
        )
        use_confirmation = (rec.icg and config.confirmation_optimization
                            and matches_preliminary)
        if use_confirmation:
            self.confirmations_sent += 1
            size = self._conf_base
        else:
            # _value_bytes, inlined (one final response per read).
            if newest is None:
                vbytes = 8
            else:
                value = newest.value
                vbytes = (len(value) if type(value) is str and value.isascii()
                          else estimate_payload_size(value))
                if vbytes < config.value_size_bytes:
                    vbytes = config.value_size_bytes
            size = self._resp_base + vbytes
        client = rec.client
        if self.network.fused_send_to(
                self, client.name, size, client._fused_final,
                (rec, use_confirmation, matches_preliminary)):
            rec.refs += 1
        if config.read_repair and newest is not None:
            # Read repair has no client operation to ride on: a one-way
            # ``write_req`` Message per replica that answered with less.
            stamp = newest.timestamp
            size = self._req_base + self._value_bytes(newest.value)
            for name, version in rec.responses.items():
                if version is not None and version.timestamp >= stamp:
                    continue
                if name == self.name:
                    self.table.apply(rec.key, newest)
                else:
                    self.send(name, "write_req",
                              {"key": rec.key, "version": newest},
                              size_bytes=size)

    def _fused_read_stale(self, rec: FusedRead) -> None:
        """Re-solicit a rejected read from the post-rebalance owners.

        The rejecting replica streamed the key's range away (or left the
        ring); the distance cache was invalidated by the epoch bump, so this
        walk sees the fresh preference list.
        """
        net = self.network
        if not self.alive:
            net.messages_dropped += 1
            rec.unref()
            return
        net.messages_delivered += 1
        if rec.final_sent or rec.incarnation != self._incarnation:
            rec.unref()
            return
        self.stale_epoch_retries += 1
        needed = rec.r - rec.count
        contacted = rec.contacted
        for name in self._other_replicas_by_distance(rec.key):
            if needed <= 0:
                break
            if name in contacted:
                continue
            needed -= 1
            contacted.append(name)
            if net.fused_send_to(self, name, self._req_base,
                                 net.node(name)._fused_read_req, rec.args):
                rec.refs += 1
        # If this node became an owner in the new epoch (possible when the
        # rejected range moved here), answer from the local table directly.
        if not rec.local and self.partitioner.is_replica(self.name, rec.key):
            version = self.table.get(rec.key)
            rec.local = True
            rec.local_version = version
            if self._track_responses:
                rec.responses[self.name] = version
            rec.count += 1
            best = rec.best
            if version is not None and (best is None
                                        or version.timestamp > best.timestamp):
                rec.best = version
            if self.name not in contacted:
                contacted.append(self.name)
            if rec.count >= rec.r:
                self._fused_finish_read(rec, False)
        rec.unref()

    def _fused_read_timeout(self, rec: FusedRead) -> None:
        """The read quorum did not assemble in ``read_timeout_ms``: retry,
        then downgrade to what was gathered (or fail)."""
        rec.quorum_timer = None
        if rec.final_sent or rec.incarnation != self._incarnation \
                or not self.alive:
            rec.unref()
            return
        config = self.config
        net = self.network
        if rec.solicits < config.coordinator_retries:
            rec.solicits += 1
            self.read_retries += 1
            # Re-solicit every replica that has not answered yet — including
            # ones beyond the original quorum fan-out, so the read can route
            # around a crashed or partitioned replica.
            responses = rec.responses
            contacted = rec.contacted
            for name in self._other_replicas_by_distance(rec.key):
                if name in responses:
                    continue
                if name not in contacted:
                    contacted.append(name)
                if net.fused_send_to(self, name, self._req_base,
                                     net.node(name)._fused_read_req,
                                     rec.args):
                    rec.refs += 1
            # The new timer takes over this one's reference.
            rec.quorum_timer = self.scheduler.schedule(
                config.read_timeout_ms, self._fused_read_timeout, rec)
            return
        if config.downgrade_on_timeout and rec.responses:
            self.reads_downgraded += 1
            self._fused_finish_read(rec, True)
        else:
            self.reads_failed += 1
            rec.final_sent = True
            client = rec.client
            if net.fused_send_to(
                    self, client.name, self._resp_base, client._fused_error,
                    (rec, "read timeout: no replica responded", False)):
                rec.refs += 1
        rec.unref()

    # -- writes ----------------------------------------------------------------
    def _fused_client_write(self, rec: FusedWrite) -> None:
        net = self.network
        if not self.alive:
            net.messages_dropped += 1
            rec.unref()
            return
        net.messages_delivered += 1
        if self.ring_state != "serving":
            self._reject_client(rec)
            return
        self.writes_coordinated += 1
        rec.incarnation = self._incarnation
        rec.version = VersionedValue(
            rec.value,
            (self.scheduler.clock._now, self.name, next(self._write_seq)))
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
                 (finish, seq, self._fused_coordinate_write, rec.args, None))

    def _fused_coordinate_write(self, rec: FusedWrite) -> None:
        key = rec.key
        config = self.config
        net = self.network
        # _fused_plan, inlined (see _fused_coordinate_read).
        if self._plan_ring_version != self.partitioner.version:
            self._drop_plans()
        plan = self._fused_plans.get(key)
        if plan is None:
            plan = self._fused_plan(key)
        local, targets = plan
        version = rec.version
        refs = rec.refs - 1  # this job
        if local:
            self.table.apply(key, version)
            rec.acks.append(self.name)
            rec.ack_count = 1
        # The client sized the written payload once (_value_bytes' floor).
        vbytes = rec.value_bytes
        if vbytes < config.value_size_bytes:
            vbytes = config.value_size_bytes
        size = self._req_base + vbytes
        if targets:
            # Send the write to every other replica: the ones beyond W make
            # up the asynchronous (eventual) replication path.
            # Network.fused_send_to, inlined per target (see
            # _fused_coordinate_read).
            scheduler = net.scheduler
            clock = scheduler.clock
            heap = scheduler._heap
            jitter_fraction = net._jitter_fraction
            for node, route, _, write_req in targets:
                src_node, dst_node, stats, base = route
                if not src_node.alive:
                    net.messages_dropped += 1
                    continue
                if stats is None:
                    stats = route[2] = net._links[
                        (src_node.name, dst_node.name)] = LinkStats()
                stats.messages += 1
                stats.bytes += size
                if net._partitioned or net._partitioned_regions:
                    if net.is_partitioned(src_node.name, dst_node.name):
                        net.messages_dropped += 1
                        continue
                if not dst_node.alive:
                    net.messages_dropped += 1
                    continue
                if jitter_fraction > 0:
                    delay = base + jitter_fraction * net._rand() * base
                else:
                    delay = base
                if net._link_extra_ms:
                    delay += net.link_extra_ms(src_node.name, dst_node.name)
                refs += 1
                seq = scheduler._seq
                scheduler._seq = seq + 1
                heappush(heap, (clock._now + delay, seq, write_req,
                                (rec, True), None))
        # While a membership change is in flight, also forward the write to
        # the nodes gaining this key's range (``ack=False``: forwarded copies
        # never count towards the quorum), so no acknowledged write can be
        # lost to an in-progress stream.
        pending = self.partitioner.pending_replicas_for(key)
        if pending:
            for name in pending:
                if name == self.name:
                    continue
                self.writes_forwarded += 1
                if net.fused_send_to(self, name, size,
                                     net.node(name)._fused_write_req,
                                     (rec, False)):
                    refs += 1
        rec.refs = refs
        if rec.ack_count >= rec.w:
            self._fused_ack_client(rec, False)
        elif config.write_timeout_ms > 0:
            rec.quorum_timer = self.scheduler.schedule(
                config.write_timeout_ms, self._fused_write_timeout, rec)
            rec.refs = refs + 1
        if not rec.refs:
            rec.release()

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

    def _fused_replica_ack(self, rec: FusedWrite, replica: str) -> None:
        net = self.network
        if not self.alive:
            net.messages_dropped += 1
            rec.unref()
            return
        net.messages_delivered += 1
        # A coordinator that crashed since forgot the write: its acks mean
        # nothing to the new incarnation.
        if rec.incarnation == self._incarnation:
            if replica not in rec.acks:
                rec.acks.append(replica)
                rec.ack_count += 1
            if not rec.acked_client and rec.ack_count >= rec.w:
                self._fused_ack_client(rec, False)
        refs = rec.refs = rec.refs - 1
        if not refs:
            rec.release()

    def _fused_write_stale(self, rec: FusedWrite) -> None:
        """Re-replicate a rejected write to the post-rebalance owners."""
        net = self.network
        if not self.alive:
            net.messages_dropped += 1
            rec.unref()
            return
        net.messages_delivered += 1
        # A write keeps re-replicating only while a replica still owes an
        # answer: not once every replica acknowledged, nor after its quorum
        # wait ended by timeout, nor across a coordinator crash.
        if rec.incarnation == self._incarnation and not rec.closed \
                and rec.ack_count < self.config.replication_factor:
            self.stale_epoch_retries += 1
            self._resend_write(rec)
        rec.unref()

    def _resend_write(self, rec: FusedWrite) -> None:
        """Send the write again to every replica that has not acknowledged."""
        net = self.network
        size = self._req_base + self._value_bytes(rec.version.value)
        acks = rec.acks
        for name in self._other_replicas_by_distance(rec.key):
            if name not in acks and net.fused_send_to(
                    self, name, size, net.node(name)._fused_write_req,
                    (rec, True)):
                rec.refs += 1

    def _fused_write_timeout(self, rec: FusedWrite) -> None:
        """The write quorum did not assemble in ``write_timeout_ms``: retry,
        then acknowledge what was gathered as degraded (or fail)."""
        rec.quorum_timer = None
        if rec.acked_client or rec.incarnation != self._incarnation \
                or not self.alive:
            rec.unref()
            return
        config = self.config
        if rec.solicits < config.coordinator_retries:
            rec.solicits += 1
            self.write_retries += 1
            self._resend_write(rec)
            # The new timer takes over this one's reference.
            rec.quorum_timer = self.scheduler.schedule(
                config.write_timeout_ms, self._fused_write_timeout, rec)
            return
        rec.closed = True
        if config.downgrade_on_timeout and rec.acks:
            self.writes_downgraded += 1
            self._fused_ack_client(rec, True)
        else:
            self.writes_failed += 1
            rec.acked_client = True
            client = rec.client
            if self.network.fused_send_to(
                    self, client.name, self._resp_base, client._fused_error,
                    (rec, "write timeout: no replica acknowledged", False)):
                rec.refs += 1
        rec.unref()

    def _fused_ack_client(self, rec: FusedWrite, degraded: bool) -> None:
        timer = rec.quorum_timer
        if timer is not None:
            timer.cancel()
            rec.quorum_timer = None
            rec.refs -= 1
        rec.acked_client = True
        if degraded:
            rec.degraded = True
        client = rec.client
        if self.network.fused_send_to(
                self, client.name, _ACK_BYTES,
                client._fused_final, rec.args):
            rec.refs += 1

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
