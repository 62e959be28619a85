"""Unit tests for the coordinator's quorum bookkeeping on the pooled records
(quorum, LWW resolution, stale-replica selection, duplicate answers) and for
the client's handling of answers it no longer waits for.

The coordinator continuations are driven by hand: a record is filled in the
way ``lean_read``/``lean_write`` would, stamped as coordinated, and fed
responses directly; its count starts high so nothing retires mid-test.
"""

import pytest
from history import RecordingSink

from repro.cassandra_sim.cluster import CassandraCluster
from repro.cassandra_sim.config import CassandraConfig
from repro.cassandra_sim.coordinator import FusedRead, FusedWrite
from repro.cassandra_sim.storage import VersionedValue
from repro.sim.environment import SimEnvironment
from repro.sim.topology import Region


@pytest.fixture
def stack():
    env = SimEnvironment(seed=3)
    cluster = CassandraCluster(env, CassandraConfig(read_repair=True))
    cluster.preload({"k": "preloaded"})
    client = cluster.add_client("client", Region.IRL, Region.FRK)
    return env, cluster, client, cluster.replica_in(Region.FRK)


def _read(client, coordinator, r=2, icg=False):
    rec = FusedRead.acquire()
    rec.client, rec.coordinator, rec.op = client, coordinator, rec
    rec.key, rec.r, rec.icg = "k", r, icg
    rec.sink, rec.sent_at = RecordingSink(), 0.0
    rec.incarnation = coordinator._incarnation
    rec.refs = 100
    return rec


def _write(client, coordinator, w=2):
    rec = FusedWrite.acquire()
    rec.client, rec.coordinator, rec.op = client, coordinator, rec
    rec.key, rec.value, rec.w = "k", "v", w
    rec.version = VersionedValue("v", (1.0, coordinator.name, 1))
    rec.sink, rec.sent_at = RecordingSink(), 0.0
    rec.incarnation = coordinator._incarnation
    rec.refs = 100
    return rec


def _names(cluster, coordinator):
    return [r.name for r in cluster.replicas if r is not coordinator]


class TestReadQuorum:
    def test_quorum_reached_only_after_r_responses(self, stack):
        env, cluster, client, coordinator = stack
        a, b = _names(cluster, coordinator)
        rec = _read(client, coordinator, r=2)
        coordinator._fused_read_resp(rec, VersionedValue("v", (1.0, a, 1)), a)
        assert rec.count == 1 and not rec.final_sent
        coordinator._fused_read_resp(rec, None, b)
        assert rec.count == 2 and rec.final_sent

    def test_final_carries_the_newest_version(self, stack):
        env, cluster, client, coordinator = stack
        a, b = _names(cluster, coordinator)
        rec = _read(client, coordinator, r=2)
        coordinator._fused_read_resp(
            rec, VersionedValue("old", (1.0, a, 1)), a)
        coordinator._fused_read_resp(
            rec, VersionedValue("new", (2.0, b, 1)), b)
        env.run_until_idle()
        (final,) = rec.sink.calls
        assert final[:3] == ("final", "new", (2.0, b, 1))

    def test_final_is_empty_when_every_replica_misses(self, stack):
        env, cluster, client, coordinator = stack
        a, b = _names(cluster, coordinator)
        rec = _read(client, coordinator, r=2)
        coordinator._fused_read_resp(rec, None, a)
        coordinator._fused_read_resp(rec, None, b)
        env.run_until_idle()
        (final,) = rec.sink.calls
        assert final[:3] == ("final", None, None)

    def test_duplicate_response_overwrites_not_double_counts(self, stack):
        """A re-solicited replica may answer twice: counted once, and its
        later answer is the one that stands."""
        env, cluster, client, coordinator = stack
        a, _ = _names(cluster, coordinator)
        rec = _read(client, coordinator, r=2)
        coordinator._fused_read_resp(rec, VersionedValue("v1", (1.0, a, 1)), a)
        coordinator._fused_read_resp(rec, VersionedValue("v2", (2.0, a, 2)), a)
        assert rec.count == 1 and not rec.final_sent
        assert rec.best.value == "v2"
        assert rec.responses[a].value == "v2"

    def test_responses_after_the_final_are_ignored(self, stack):
        env, cluster, client, coordinator = stack
        a, b = _names(cluster, coordinator)
        rec = _read(client, coordinator, r=1)
        coordinator._fused_read_resp(rec, VersionedValue("v", (1.0, a, 1)), a)
        coordinator._fused_read_resp(rec, VersionedValue("w", (9.0, b, 1)), b)
        assert rec.best.value == "v" and rec.count == 1

    def test_responses_for_a_forgotten_incarnation_are_ignored(self, stack):
        env, cluster, client, coordinator = stack
        a, b = _names(cluster, coordinator)
        rec = _read(client, coordinator, r=2)
        coordinator.crash()
        coordinator.recover()
        coordinator._fused_read_resp(rec, None, a)
        coordinator._fused_read_resp(rec, None, b)
        assert rec.count == 0 and not rec.final_sent


class TestReadRepairSelection:
    def test_outdated_and_missing_replicas_are_repaired(self, stack):
        env, cluster, client, coordinator = stack
        a, b = _names(cluster, coordinator)
        newest = VersionedValue("new", (5.0, a, 1))
        rec = _read(client, coordinator, r=3)
        rec.responses[coordinator.name] = VersionedValue(
            "old", (1.0, coordinator.name, 1))
        rec.count, rec.local = 1, True
        coordinator._fused_read_resp(rec, newest, a)
        coordinator._fused_read_resp(rec, None, b)
        env.run_until_idle()
        assert coordinator.table.get("k") == newest      # applied locally
        assert cluster.replica_by_name(b).table.get("k") == newest
        # The replica that already had it was sent nothing.
        assert env.network.link_stats(coordinator.name, a).messages == 0
        assert env.network.link_stats(coordinator.name, b).messages == 1

    def test_nothing_is_repaired_when_no_replica_has_data(self, stack):
        env, cluster, client, coordinator = stack
        a, b = _names(cluster, coordinator)
        rec = _read(client, coordinator, r=2)
        coordinator._fused_read_resp(rec, None, a)
        coordinator._fused_read_resp(rec, None, b)
        assert env.network.pool_stats()["created"] == 0


class TestWriteQuorum:
    def test_ack_counting(self, stack):
        env, cluster, client, coordinator = stack
        a, b = _names(cluster, coordinator)
        rec = _write(client, coordinator, w=2)
        coordinator._fused_replica_ack(rec, a)
        assert rec.ack_count == 1 and not rec.acked_client
        coordinator._fused_replica_ack(rec, b)
        assert rec.ack_count == 2 and rec.acked_client

    def test_duplicate_acks_ignored(self, stack):
        env, cluster, client, coordinator = stack
        a, _ = _names(cluster, coordinator)
        rec = _write(client, coordinator, w=2)
        coordinator._fused_replica_ack(rec, a)
        coordinator._fused_replica_ack(rec, a)
        assert rec.ack_count == 1 and rec.acks == [a]
        assert not rec.acked_client

    def test_acks_for_a_forgotten_incarnation_are_ignored(self, stack):
        env, cluster, client, coordinator = stack
        a, b = _names(cluster, coordinator)
        rec = _write(client, coordinator, w=1)
        coordinator.crash()
        coordinator.recover()
        coordinator._fused_replica_ack(rec, a)
        assert rec.ack_count == 0 and not rec.acked_client


class TestClientRequestHandling:
    def test_request_counters(self, cassandra_setup):
        env, _, client = cassandra_setup
        client.lean_read("key1", 1, False, RecordingSink())
        client.lean_write("key1", "v", 1, RecordingSink())
        assert client.reads_sent == 1
        assert client.writes_sent == 1
