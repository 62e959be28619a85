"""End-to-end protocol tests for the simulated Cassandra cluster."""

import pytest
from history import RecordingSink

from repro.cassandra_sim.cluster import CassandraCluster
from repro.cassandra_sim.config import CassandraConfig
from repro.sim.environment import SimEnvironment
from repro.sim.topology import Region, Topology


def _env():
    return SimEnvironment(seed=9, topology=Topology(jitter_fraction=0.0))


def _cluster(env, **config_kwargs):
    cluster = CassandraCluster(env, CassandraConfig(**config_kwargs))
    cluster.preload({f"key{i}": f"value{i}" for i in range(10)})
    return cluster


class TestReads:
    def test_r1_read_returns_preloaded_value(self):
        env = _env()
        cluster = _cluster(env)
        client = cluster.add_client("c", Region.IRL, Region.FRK)
        results = RecordingSink()
        client.lean_read("key3", 1, False, results)
        env.run_until_idle()
        assert results.answers[0].value == "value3"
        assert results.answers[0].stamp is not None

    def test_missing_key_reported_not_found(self):
        env = _env()
        cluster = _cluster(env)
        client = cluster.add_client("c", Region.IRL, Region.FRK)
        results = RecordingSink()
        client.lean_read("missing", 2, False, results)
        env.run_until_idle()
        assert results.answers[0].value is None
        assert results.answers[0].stamp is None

    def test_quorum_size_drives_latency(self):
        latencies = {}
        for r in (1, 2, 3):
            env = _env()
            cluster = _cluster(env)
            client = cluster.add_client("c", Region.IRL, Region.FRK)
            results = RecordingSink()
            client.lean_read("key1", r, False, results)
            env.run_until_idle()
            latencies[r] = results.answers[0].latency_ms
        assert latencies[1] < latencies[2] < latencies[3]
        # R=1 ≈ client-coordinator RTT; R=3 additionally waits for Virginia.
        assert latencies[1] == pytest.approx(20.0, abs=5.0)
        assert latencies[3] > 100.0

    def test_icg_read_produces_preliminary_then_final(self):
        env = _env()
        cluster = _cluster(env)
        client = cluster.add_client("c", Region.IRL, Region.FRK)
        events = RecordingSink()
        client.lean_read("key1", 2, True, events)
        env.run_until_idle()
        assert events.kinds() == ["preliminary", "final"]
        prelim, final = events.calls
        assert prelim.latency_ms < final.latency_ms
        assert prelim.value == final.value == "value1"

    def test_preliminary_counter_increments(self):
        env = _env()
        cluster = _cluster(env)
        client = cluster.add_client("c", Region.IRL, Region.FRK)
        client.lean_read("key1", 2, True, RecordingSink())
        env.run_until_idle()
        assert cluster.total("preliminaries_flushed") == 1


class TestWrites:
    def test_write_then_strong_read(self):
        env = _env()
        cluster = _cluster(env)
        client = cluster.add_client("c", Region.IRL, Region.FRK)
        client.lean_write("key1", "updated", 1, RecordingSink())
        env.run_until_idle()
        results = RecordingSink()
        client.lean_read("key1", 3, False, results)
        env.run_until_idle()
        assert results.answers[0].value == "updated"

    def test_write_eventually_reaches_all_replicas(self):
        env = _env()
        cluster = _cluster(env)
        client = cluster.add_client("c", Region.IRL, Region.FRK)
        client.lean_write("key5", "new-value", 1, RecordingSink())
        env.run_until_idle()
        for replica in cluster.replicas:
            assert replica.table.get("key5").value == "new-value"

    def test_w1_acks_before_full_replication(self):
        env = _env()
        cluster = _cluster(env)
        client = cluster.add_client("c", Region.IRL, Region.FRK)
        acked_at = []
        client.lean_write("key1", "v2", 1, RecordingSink(
            then=lambda answer: acked_at.append(env.now())))
        # Run only a little past the ack: the VRG replica must still be stale.
        env.run(until=45.0)
        assert acked_at and acked_at[0] < 45.0
        vrg_replica = cluster.replica_in(Region.VRG)
        assert vrg_replica.table.get("key1").value == "value1"
        env.run_until_idle()
        assert vrg_replica.table.get("key1").value == "v2"

    def test_w2_waits_for_remote_ack(self):
        latencies = {}
        for w in (1, 2):
            env = _env()
            cluster = _cluster(env)
            client = cluster.add_client("c", Region.IRL, Region.FRK)
            results = RecordingSink()
            client.lean_write("key1", "v", w, results)
            env.run_until_idle()
            latencies[w] = results.answers[0].latency_ms
        assert latencies[2] > latencies[1]

    def test_concurrent_writes_converge_via_lww(self):
        env = _env()
        cluster = _cluster(env)
        c1 = cluster.add_client("c1", Region.IRL, Region.FRK)
        c2 = cluster.add_client("c2", Region.VRG, Region.VRG)
        c1.lean_write("key1", "from-frk", 1, RecordingSink())
        c2.lean_write("key1", "from-vrg", 1, RecordingSink())
        env.run_until_idle()
        values = {replica.table.get("key1").value
                  for replica in cluster.replicas}
        assert len(values) == 1  # all replicas converged to the same winner


class TestStalenessAndConfirmation:
    def test_preliminary_can_be_stale_while_final_is_fresh(self):
        env = _env()
        cluster = _cluster(env)
        # The writer talks to the VRG coordinator, the reader to FRK: the
        # fresh value reaches IRL/VRG before FRK applies it.
        writer = cluster.add_client("writer", Region.VRG, Region.VRG)
        reader = cluster.add_client("reader", Region.IRL, Region.FRK)
        writer.lean_write("key2", "fresh", 1, RecordingSink())
        events = RecordingSink()
        # Issue the ICG read while replication to FRK is still in flight.
        env.scheduler.schedule(25.0, reader.lean_read, "key2", 3, True,
                               events)
        env.run_until_idle()
        prelim, final = events.calls
        assert prelim.value == "value2"        # stale preliminary
        assert final.value == "fresh"          # correct final

    def test_confirmation_optimization_sends_confirmation(self):
        env = _env()
        cluster = CassandraCluster(env, CassandraConfig(
            confirmation_optimization=True))
        cluster.preload({"key1": "value1"})
        client = cluster.add_client("c", Region.IRL, Region.FRK)
        finals = RecordingSink()
        client.lean_read("key1", 2, True, finals)
        env.run_until_idle()
        assert finals.answers[0].is_confirmation
        assert finals.answers[0].value == "value1"
        assert cluster.total("confirmations_sent") == 1

    def test_confirmation_uses_fewer_bytes_than_full_final(self):
        sizes = {}
        for optimized in (False, True):
            env = _env()
            cluster = CassandraCluster(env, CassandraConfig(
                confirmation_optimization=optimized))
            cluster.preload({"key1": "value1" * 20})
            client = cluster.add_client("c", Region.IRL, Region.FRK)
            client.lean_read("key1", 2, True, RecordingSink())
            env.run_until_idle()
            coordinator = cluster.replica_in(Region.FRK)
            sizes[optimized] = env.network.link_stats(
                coordinator.name, client.name).bytes
        assert sizes[True] < sizes[False]

    def test_read_repair_fixes_stale_replica(self):
        env = _env()
        cluster = CassandraCluster(env, CassandraConfig(read_repair=True))
        cluster.preload({"key1": "old"})
        # Make the VRG replica stale by applying a newer version elsewhere.
        from repro.cassandra_sim.storage import VersionedValue
        fresh = VersionedValue("fresh", (100.0, "manual", 1))
        cluster.replica_in(Region.FRK).table.apply("key1", fresh)
        cluster.replica_in(Region.IRL).table.apply("key1", fresh)
        client = cluster.add_client("c", Region.IRL, Region.FRK)
        client.lean_read("key1", 3, False, RecordingSink())
        env.run_until_idle()
        assert cluster.replica_in(Region.VRG).table.get("key1").value == "fresh"


class TestClusterAssembly:
    def test_replica_in_unknown_region_raises(self):
        env = _env()
        cluster = _cluster(env)
        with pytest.raises(KeyError):
            cluster.replica_in("mars-east-1")

    def test_too_few_regions_rejected(self):
        env = _env()
        with pytest.raises(ValueError):
            CassandraCluster(env, CassandraConfig(replication_factor=3),
                             replica_regions=(Region.IRL, Region.FRK))

    def test_quorum_helper(self):
        assert CassandraConfig(replication_factor=3).quorum() == 2
        assert CassandraConfig(replication_factor=5).quorum() == 3

    def test_clients_tracked(self):
        env = _env()
        cluster = _cluster(env)
        cluster.add_client("c1", Region.IRL, Region.FRK)
        cluster.add_client("c2", Region.FRK, Region.VRG)
        assert len(cluster.clients) == 2
