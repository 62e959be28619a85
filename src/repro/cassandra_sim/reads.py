"""The read coordinator: a quorum read from request to final.

:class:`ReadCoordinator` is mixed into :class:`~repro.cassandra_sim.replica.
CassandraReplica` and uses its state.  A read completes in one place,
``_fused_finish_read`` (read repair included); the ``_fused_read_stale``
rejection and the ``_fused_read_timeout`` timer (retry, then downgrade)
re-solicit through the fan-out plan the first send used.

Correctable Cassandra behaviour (Section 5.2): when a client read carries the
``icg`` flag, the coordinator performs *preliminary flushing* — an extra job
on its processing queue that sends the first locally available version to the
client before the quorum completes — and, if the confirmation optimization is
enabled, replaces an identical final response with a small confirmation.
"""

from __future__ import annotations

from heapq import heappush
from typing import Optional

from repro.cassandra_sim.coordinator import FusedRead
from repro.cassandra_sim.storage import VersionedValue
from repro.sim.network import LinkStats, estimate_payload_size


class ReadCoordinator:
    """The coordinator's read hops (see the module docstring)."""

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
        ring); the epoch bump dropped the fan-out plans, so this walk sees
        the fresh preference list.
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
        local, targets = self._fused_plan(rec.key)
        needed = rec.r - rec.count
        contacted = rec.contacted
        for node, _, read_req, _ in targets:
            if needed <= 0:
                break
            name = node.name
            if name in contacted:
                continue
            needed -= 1
            contacted.append(name)
            if net.fused_send_to(self, name, self._req_base, read_req,
                                 rec.args):
                rec.refs += 1
        # If this node became an owner in the new epoch (possible when the
        # rejected range moved here), answer from the local table directly.
        if not rec.local and local:
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
            for node, _, read_req, _ in self._fused_plan(rec.key)[1]:
                name = node.name
                if name in responses:
                    continue
                if name not in contacted:
                    contacted.append(name)
                if net.fused_send_to(self, name, self._req_base, read_req,
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

