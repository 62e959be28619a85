"""The write coordinator: a quorum write from request to acknowledgement.

:class:`WriteCoordinator` is mixed into :class:`~repro.cassandra_sim.replica.
CassandraReplica` and uses its state.  The write goes to every replica (the
copies beyond W are the asynchronous replication path) and the client is
answered in one place, ``_fused_ack_client``; the ``_fused_write_stale``
rejection and the ``_fused_write_timeout`` timer (retry, then downgrade)
re-send through the fan-out plan the first send used.  While a ring change
is in flight, coordinators forward writes to the nodes gaining the key's
range (without counting them towards the write quorum), which is what makes
acknowledged writes survive any join/decommission.
"""

from __future__ import annotations

from heapq import heappush

from repro.cassandra_sim.coordinator import FusedWrite
from repro.cassandra_sim.storage import VersionedValue
from repro.sim.network import LinkStats, MESSAGE_HEADER_BYTES

#: Wire size of the small fixed acknowledgements (write_ack and friends).
_ACK_BYTES = MESSAGE_HEADER_BYTES + 10


class WriteCoordinator:
    """The coordinator's write hops (see the module docstring)."""

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
        # Sized as _fused_coordinate_write sizes it.
        vbytes = rec.value_bytes
        if vbytes < self.config.value_size_bytes:
            vbytes = self.config.value_size_bytes
        size = self._req_base + vbytes
        acks = rec.acks
        for node, _, _, write_req in self._fused_plan(rec.key)[1]:
            name = node.name
            if name not in acks and net.fused_send_to(
                    self, name, size, write_req, (rec, True)):
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

