"""Every cold-path guard of the read and write coordinators and of the
replica, made to fire by name.

These are the branches no workload takes on purpose: a reply that finds its
coordinator dead, an attempt that retires at the coordinator, a timeout
that gives up, read repair or a stream acknowledgement reaching a node that
moved on.  Each test sets up the one situation that fires its guard and
checks what the guard is there to do (a count settled, a drop counted, an
answer sent or withheld).  ``tests/ledger.py`` fails the suite when any line
of ``reads.py``, ``writes.py`` or ``replica.py`` goes unreached, so
skipping one of these is caught there.

Records are filled in by hand the way ``lean_read``/``lean_write`` (or a
client failover's re-send) would, where the race that leads to a guard is
easier to state than to schedule.
"""

import pytest
from history import RecordingSink

from repro.cassandra_sim.cluster import CassandraCluster
from repro.cassandra_sim.config import CassandraConfig
from repro.cassandra_sim.coordinator import FusedRead, FusedWrite
from repro.cassandra_sim.partitioner import StreamTask
from repro.cassandra_sim.storage import VersionedValue
from repro.sim.environment import SimEnvironment
from repro.sim.network import MESSAGE_HEADER_BYTES, estimate_payload_size
from repro.sim.topology import Region


def _stack(**config):
    """Three replicas (every one a replica of every key), one IRL client
    whose coordinator is the FRK replica."""
    env = SimEnvironment(seed=5)
    cluster = CassandraCluster(env, CassandraConfig(**config))
    cluster.preload({"k": "preloaded"})
    client = cluster.add_client("client", Region.IRL, Region.FRK)
    return env, cluster, client, cluster.replica_in(Region.FRK)


def _others(cluster, coordinator):
    return [r for r in cluster.replicas if r is not coordinator]


def _attempt(kind, client, coordinator, op=None, refs=1):
    """A record as the client fills it in; with ``op`` it is a failover
    attempt of that operation, which holds nothing but its hops."""
    rec = kind.acquire()
    rec.client, rec.coordinator, rec.key = client, coordinator, "k"
    rec.op = rec if op is None else op
    rec.sink, rec.sent_at = RecordingSink(), 0.0
    rec.incarnation = coordinator._incarnation
    if kind is FusedRead:
        rec.r, rec.icg = 2, False
    else:
        rec.value, rec.value_bytes, rec.w = "v", 1, 2
        rec.version = VersionedValue("v", (1.0, coordinator.name, 1))
    rec.refs = refs
    return rec


def _retired(kind):
    return kind.pool_stats()["recycled"]


class TestFanOut:
    @pytest.mark.parametrize("kind", ["read", "write"])
    def test_a_coordinator_that_crashed_with_the_job_queued_sends_nothing(
            self, kind):
        """The request arrived and queued the coordinate job; the node
        crashed before the job ran.  The job still runs (a queue is not
        emptied by a crash), and every fan-out send is dropped at the
        sender: counted as dropped, charged to no link."""
        env, cluster, client, coordinator = _stack()
        sink = RecordingSink()
        if kind == "read":
            client.lean_read("k", 3, False, sink)
        else:
            client.lean_write("k", "new", 3, sink)
        env.run(max_events=1)  # the request arrives at the coordinator
        assert coordinator.reads_coordinated + \
            coordinator.writes_coordinated == 1
        coordinator.crash()
        dropped = env.network.messages_dropped
        env.run_until_idle()
        assert env.network.messages_dropped == dropped + 2
        for replica in _others(cluster, coordinator):
            assert env.network.link_stats(
                coordinator.name, replica.name).messages == 0
            assert replica.table.get("k").value == "preloaded"
        assert sink.calls == []

    @pytest.mark.parametrize("kind", [FusedRead, FusedWrite])
    def test_an_attempt_nothing_else_holds_retires_at_the_coordinator(
            self, kind):
        """A failover attempt holds only its hops.  When its coordinator
        reaches no other replica (both are down) and arms no timer, the
        coordinate job drops the last reference: the attempt retires there
        and hands its hold on the operation back."""
        env, cluster, client, coordinator = _stack()
        for replica in _others(cluster, coordinator):
            replica.crash()
        op = _attempt(kind, client, coordinator, refs=100)
        rec = _attempt(kind, client, coordinator, op=op)
        retired = _retired(kind)
        if kind is FusedRead:
            coordinator._fused_coordinate_read(rec)
        else:
            coordinator._fused_coordinate_write(rec)
        assert rec.refs == 0 and _retired(kind) == retired + 1
        assert op.refs == 99
        env.run_until_idle()
        assert rec.sink.calls == []


class TestReads:
    def test_the_last_answer_short_of_the_quorum_retires_an_attempt(self):
        env, cluster, client, coordinator = _stack()
        op = _attempt(FusedRead, client, coordinator, refs=100)
        rec = _attempt(FusedRead, client, coordinator, op=op)
        replica = _others(cluster, coordinator)[0]
        retired = _retired(FusedRead)
        coordinator._fused_read_resp(rec, None, replica.name)
        assert rec.count == 1 and not rec.final_sent
        assert rec.refs == 0 and _retired(FusedRead) == retired + 1
        assert op.refs == 99

    def test_a_preliminary_from_a_replica_is_sized_by_its_payload(self):
        """A coordinator that holds no copy flushes the first remote answer
        as the preliminary; a value that is not a string is sized by the
        payload estimate (floored at ``value_size_bytes``), like the
        final."""
        env = SimEnvironment(seed=5)
        cluster = CassandraCluster(env, CassandraConfig(), nodes=[
            ("n-frk", Region.FRK), ("n-irl", Region.IRL),
            ("n-vrg", Region.VRG), ("n-frk2", Region.FRK)])
        coordinator = cluster.replica_by_name("n-frk")
        key = next(f"k{i}" for i in range(100) if coordinator.name
                   not in cluster.partitioner.replicas_for(f"k{i}"))
        value = [f"field-{i:04d}" for i in range(20)]
        version = VersionedValue(value, (1.0, "n-irl", 1))
        for name in cluster.partitioner.replicas_for(key):
            cluster.replica_by_name(name).table.apply(key, version)
        client = cluster.add_client("client", Region.IRL, Region.FRK)
        sink = RecordingSink()
        client.lean_read(key, 2, True, sink)
        env.run_until_idle()
        assert sink.kinds() == ["preliminary", "final"]
        assert sink.calls[0].value == value == sink.calls[1].value
        vbytes = estimate_payload_size(value)
        assert vbytes > cluster.config.value_size_bytes
        answer = (MESSAGE_HEADER_BYTES
                  + cluster.config.response_overhead_bytes + vbytes)
        assert env.network.link_stats(coordinator.name,
                                      client.name).bytes == 2 * answer

    def test_a_stale_rejection_reaching_a_dead_coordinator_is_dropped(self):
        env, cluster, client, coordinator = _stack()
        replica = _others(cluster, coordinator)[0]
        rec = _attempt(FusedRead, client, coordinator, refs=2)
        assert env.network.fused_send_to(
            replica, coordinator.name, 50, coordinator._fused_read_stale,
            rec.args)
        coordinator.crash()
        dropped = env.network.messages_dropped
        env.run_until_idle()
        assert env.network.messages_dropped == dropped + 1
        assert rec.refs == 1 and coordinator.stale_epoch_retries == 0

    def test_the_owner_rescue_keeps_a_newer_local_version(self):
        """A rejected read at a coordinator that is an owner in the new
        epoch answers from its own table; a local version newer than what
        the replicas sent becomes the final."""
        env, cluster, client, coordinator = _stack()
        replica = _others(cluster, coordinator)[0]
        newer = VersionedValue("newer", (9.0, coordinator.name, 1))
        coordinator.table.apply("k", newer)
        rec = _attempt(FusedRead, client, coordinator, refs=100)
        rec.r = 2
        coordinator._fused_read_resp(
            rec, VersionedValue("older", (1.0, replica.name, 1)),
            replica.name)
        rec.contacted.extend(r.name for r in cluster.replicas)
        coordinator._fused_read_stale(rec)
        assert rec.local and rec.best is newer and rec.final_sent
        env.run_until_idle()
        assert rec.sink.calls[-1][:2] == ("final", "newer")


class TestWrites:
    def test_a_stale_rejection_reaching_a_dead_coordinator_is_dropped(self):
        env, cluster, client, coordinator = _stack()
        replica = _others(cluster, coordinator)[0]
        rec = _attempt(FusedWrite, client, coordinator, refs=2)
        assert env.network.fused_send_to(
            replica, coordinator.name, 50, coordinator._fused_write_stale,
            rec.args)
        coordinator.crash()
        dropped = env.network.messages_dropped
        env.run_until_idle()
        assert env.network.messages_dropped == dropped + 1
        assert rec.refs == 1 and coordinator.stale_epoch_retries == 0

    def test_a_write_timeout_without_downgrade_fails_the_write(self):
        """No retry left and no downgrade: the client gets an error, not
        an acknowledgement from below the quorum."""
        env, cluster, client, coordinator = _stack(
            write_timeout_ms=100.0, coordinator_retries=0,
            downgrade_on_timeout=False)
        for replica in _others(cluster, coordinator):
            replica.crash()
        sink = RecordingSink()
        client.lean_write("k", "new", 2, sink)
        env.run_until_idle()
        assert sink.kinds() == ["error"]
        assert sink.calls[0].error == "write timeout: no replica acknowledged"
        assert coordinator.writes_failed == 1
        assert cluster.in_flight() == {"read_sessions": 0,
                                       "write_sessions": 0,
                                       "client_pending": 0}

    def test_resends_are_sized_like_the_first_send(self):
        """A timeout re-send charges the same request size as the fan-out
        it repeats: the client-measured value bytes, floored."""
        env, cluster, client, coordinator = _stack(
            write_timeout_ms=100.0, coordinator_retries=1)
        replica = _others(cluster, coordinator)[0]
        replica.crash()
        value = "x" * 300
        client.lean_write("k", value, 3, RecordingSink())
        env.run_until_idle()
        size = (MESSAGE_HEADER_BYTES + cluster.config.key_size_bytes
                + len(value))
        stats = env.network.link_stats(coordinator.name, replica.name)
        assert coordinator.write_retries == 1
        assert (stats.messages, stats.bytes) == (2, 2 * size)


class TestReplica:
    def test_the_per_key_plan_cache_is_bounded(self):
        """Past 65,536 keys the per-key cache starts over; the per-slot
        plans it points at stay."""
        _, cluster, _, coordinator = _stack()
        for i in range(65_536):
            coordinator._fused_plan(f"key-{i}")
        assert len(coordinator._fused_plans) == 65_536
        plan = coordinator._fused_plan("one-more")
        assert list(coordinator._fused_plans) == ["one-more"]
        assert plan in coordinator._slot_plans.values()

    def test_a_rejection_the_client_cannot_receive_is_dropped(self):
        """A coordinator that left the ring rejects the request; with the
        client crashed the rejection is dropped and the hop's reference
        settled."""
        env, cluster, client, coordinator = _stack()
        coordinator.ring_state = "retired"
        rec = client.lean_read("k", 2, False, RecordingSink())
        assert rec.refs == 2
        client.crash()
        dropped = env.network.messages_dropped
        env.run_until_idle()
        assert coordinator.stale_rejections == 1
        assert env.network.messages_dropped == dropped + 1
        assert rec.refs == 1

    def test_a_stale_rejection_to_a_dead_coordinator_is_dropped(self):
        """A replica that left the ring rejects a data read; the
        coordinator crashed since, so the rejection is dropped."""
        env, cluster, client, coordinator = _stack()
        replica = _others(cluster, coordinator)[0]
        replica.ring_state = "retired"
        rec = _attempt(FusedRead, client, coordinator, refs=2)
        coordinator.crash()
        dropped = env.network.messages_dropped
        replica._fused_serve_read(rec)
        assert replica.stale_rejections == 1
        assert env.network.messages_dropped == dropped + 1
        assert rec.refs == 1

    def test_read_repair_reaching_a_retired_replica_is_not_applied(self):
        env, cluster, client, coordinator = _stack()
        replica = _others(cluster, coordinator)[0]
        replica.ring_state = "retired"
        newer = VersionedValue("repaired", (9.0, coordinator.name, 1))
        coordinator.send(replica.name, "write_req",
                         {"key": "k", "version": newer}, size_bytes=150)
        env.run_until_idle()
        assert replica.stale_rejections == 1
        assert replica.table.get("k").value == "preloaded"

    def test_a_stream_task_for_another_source_is_refused(self):
        _, cluster, _, coordinator = _stack()
        other = _others(cluster, coordinator)[0]
        task = StreamTask(source=other.name, target=coordinator.name,
                          start_token=0, end_token=1)
        with pytest.raises(ValueError, match="sourced at"):
            coordinator.begin_stream(task, lambda task: None)
        assert coordinator._streams == {}

    def test_an_acknowledgement_for_no_stream_is_ignored(self):
        env, cluster, _, coordinator = _stack()
        other = _others(cluster, coordinator)[0]
        jobs = coordinator.queue.jobs_processed
        other.send(coordinator.name, "stream_ack", {"stream_id": 7},
                   size_bytes=MESSAGE_HEADER_BYTES + 10)
        env.run_until_idle()
        assert coordinator.queue.jobs_processed == jobs
        assert coordinator.keys_streamed_out == 0
