"""End-to-end tests: the full Correctables stack over the simulated clusters."""

import pytest

from repro.apps.ads import AdServingSystem
from repro.apps.datasets import AdsDataset
from repro.bindings.cassandra import CassandraBinding
from repro.bindings.zookeeper import ZooKeeperQueueBinding
from repro.cassandra_sim.cluster import CassandraCluster
from repro.cassandra_sim.config import CassandraConfig
from repro.core.client import CorrectableClient
from repro.core.consistency import STRONG, WEAK
from repro.core.operations import dequeue, read, write
from repro.sim.environment import SimEnvironment
from repro.sim.topology import Region
from repro.zookeeper_sim.cluster import ZooKeeperCluster


class TestCassandraStack:
    def test_icg_read_speculation_window_matches_topology(self, cassandra_setup):
        """The preliminary/final gap equals the coordinator's quorum RTT."""
        env, cluster, node = cassandra_setup
        client = CorrectableClient(CassandraBinding(node))
        c = client.invoke(read("key1"))
        env.run_until_idle()
        prelim, final = c.views()
        gap = final.timestamp - prelim.timestamp
        # Coordinator in FRK gathers its quorum from IRL: RTT ≈ 20 ms.
        assert 15.0 < gap < 30.0

    def test_read_your_own_write_with_strong_reads(self, cassandra_setup):
        env, _, node = cassandra_setup
        client = CorrectableClient(CassandraBinding(node))
        for i in range(5):
            client.invoke_strong(write("counter", i))
            env.run_until_idle()
            c = client.invoke_strong(read("counter"))
            env.run_until_idle()
            assert c.value() == i

    def test_speculative_ads_end_to_end_on_cluster(self):
        env = SimEnvironment(seed=21)
        dataset = AdsDataset(profile_count=30, ad_count=60,
                             max_ads_per_profile=5, seed=2)
        cluster = CassandraCluster(env, CassandraConfig())
        cluster.preload(dataset.initial_items())
        node = cluster.add_client("app-client", Region.IRL, Region.FRK)
        app = AdServingSystem(CorrectableClient(CassandraBinding(node)), dataset)
        results = []
        app.fetch_ads_by_user_id("profile:0", results.append)
        env.run_until_idle()
        assert len(results[0]["ads"]) == len(dataset.ad_refs("profile:0"))
        assert results[0]["speculation_confirmed"]
        assert app.speculation_stats.confirmed == 1


class TestZooKeeperStack:
    def test_queue_binding_end_to_end_gap(self, zookeeper_setup):
        env, _, node = zookeeper_setup
        client = CorrectableClient(ZooKeeperQueueBinding(node, "/queue"))
        c = client.invoke(dequeue("/queue"))
        env.run_until_idle()
        prelim, final = c.views()
        assert prelim.consistency == WEAK and final.consistency == STRONG
        # Follower in FRK, leader in IRL: the commit path costs ≥ 2 WAN trips.
        assert final.timestamp - prelim.timestamp > 30.0
        assert prelim.value["item"] == final.value["item"]


class TestFaultTolerance:
    def test_cc2_read_survives_far_replica_crash(self, cassandra_setup):
        env, cluster, node = cassandra_setup
        cluster.replica_in(Region.VRG).crash()
        client = CorrectableClient(CassandraBinding(node))
        c = client.invoke(read("key1"))
        env.run_until_idle()
        assert c.is_final()
        assert c.value() == "value1"

    def test_w1_write_survives_replica_crash(self, cassandra_setup):
        env, cluster, node = cassandra_setup
        cluster.replica_in(Region.VRG).crash()
        client = CorrectableClient(CassandraBinding(node))
        c = client.invoke_strong(write("key1", "still-works"))
        env.run_until_idle()
        assert c.is_final()
        # The surviving replicas converge; the crashed one stays stale.
        assert cluster.replica_in(Region.FRK).table.get("key1").value == \
            "still-works"
        assert cluster.replica_in(Region.VRG).table.get("key1").value == \
            "value1"

    def test_partition_heal_lets_replication_catch_up(self, cassandra_setup):
        env, cluster, node = cassandra_setup
        frk = cluster.replica_in(Region.FRK)
        vrg = cluster.replica_in(Region.VRG)
        env.network.partition(frk.name, vrg.name)
        client = CorrectableClient(CassandraBinding(node))
        client.invoke_strong(write("key1", "v-partitioned"))
        env.run_until_idle()
        assert vrg.table.get("key1").value == "value1"   # still stale
        env.network.heal(frk.name, vrg.name)
        client.invoke_strong(write("key1", "v-healed"))
        env.run_until_idle()
        assert vrg.table.get("key1").value == "v-healed"

    def test_zookeeper_write_survives_follower_crash(self, zookeeper_setup):
        env, cluster, node = zookeeper_setup
        # Crash the follower the client is NOT connected to (VRG).
        crashed = [f for f in cluster.followers if f.region == Region.VRG][0]
        crashed.crash()
        client = CorrectableClient(ZooKeeperQueueBinding(node, "/queue"))
        c = client.invoke_strong(dequeue("/queue"))
        env.run_until_idle()
        # Leader + the remaining follower still form a majority.
        assert c.is_final()
        assert c.value()["item"] == "item-0"

    def test_zookeeper_progress_requires_majority(self, zookeeper_setup):
        env, cluster, node = zookeeper_setup
        for follower in cluster.followers:
            follower.crash()
        client = CorrectableClient(ZooKeeperQueueBinding(node, "/queue"))
        c = client.invoke_strong(dequeue("/queue"))
        env.run_until_idle()
        # With both followers down no quorum can form: the operation stays
        # open rather than returning an unsafe result.
        assert not c.is_done()


class TestDeterminism:
    def test_same_seed_same_results(self):
        def _run(seed):
            env = SimEnvironment(seed=seed)
            cluster = CassandraCluster(env, CassandraConfig())
            cluster.preload({"k": "v0"})
            node = cluster.add_client("c", Region.IRL, Region.FRK)
            client = CorrectableClient(CassandraBinding(node))
            c = client.invoke(read("k"))
            env.run_until_idle()
            return [(view.value, view.timestamp) for view in c.views()]

        assert _run(5) == _run(5)
        assert _run(5) != _run(6)
