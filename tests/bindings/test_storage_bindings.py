"""Tests for the Cassandra and ZooKeeper bindings over the simulated clusters."""

import pytest

from repro.bindings.cassandra import CassandraBinding
from repro.bindings.zookeeper import ZooKeeperQueueBinding
from repro.core.client import CorrectableClient
from repro.core.consistency import STRONG, WEAK
from repro.core.operations import custom, dequeue, enqueue, read, write


class TestCassandraBinding:
    def test_levels(self, cassandra_setup):
        _, _, node = cassandra_setup
        binding = CassandraBinding(node)
        assert binding.consistency_levels() == [WEAK, STRONG]
        assert binding.supports(WEAK)

    def test_icg_read_yields_two_views(self, cassandra_setup):
        env, _, node = cassandra_setup
        client = CorrectableClient(CassandraBinding(node))
        c = client.invoke(read("key1"))
        env.run_until_idle()
        assert c.is_final()
        assert len(c.views()) == 2
        assert c.views()[0].consistency == WEAK
        assert c.value() == "value1"
        assert c.views()[0].timestamp < c.views()[1].timestamp

    def test_weak_read_single_view(self, cassandra_setup):
        env, _, node = cassandra_setup
        client = CorrectableClient(CassandraBinding(node))
        c = client.invoke_weak(read("key2"))
        env.run_until_idle()
        assert c.is_final()
        assert len(c.views()) == 1
        assert c.final_view().consistency == WEAK

    def test_strong_read_single_view_higher_latency(self, cassandra_setup):
        env, _, node = cassandra_setup
        client = CorrectableClient(CassandraBinding(node))
        weak = client.invoke_weak(read("key2"))
        strong = client.invoke_strong(read("key2"))
        env.run_until_idle()
        assert strong.final_view().metadata["latency_ms"] > \
            weak.final_view().metadata["latency_ms"]

    def test_write_then_read(self, cassandra_setup):
        env, _, node = cassandra_setup
        client = CorrectableClient(CassandraBinding(node))
        client.invoke_strong(write("key1", "updated"))
        env.run_until_idle()
        c = client.invoke_strong(read("key1"))
        env.run_until_idle()
        assert c.value() == "updated"

    def test_icg_write_gives_optimistic_weak_view(self, cassandra_setup):
        env, _, node = cassandra_setup
        client = CorrectableClient(CassandraBinding(node))
        c = client.invoke(write("key3", "vvv"))
        # The optimistic weak echo is synchronous.
        assert len(c.views()) == 1
        echo = c.views()[0]
        assert (echo.consistency, echo.value) == (WEAK, "vvv")
        assert echo.metadata == {"latency_ms": 0.0, "preliminary": True}
        env.run_until_idle()
        assert c.is_final()
        assert c.value() == "vvv"

    def test_quorum_of_three(self, cassandra_setup):
        env, _, node = cassandra_setup
        client = CorrectableClient(CassandraBinding(node, strong_read_quorum=3))
        c = client.invoke(read("key1"))
        env.run_until_idle()
        # R=3 waits for Virginia (an R=2 read takes about 44 ms).
        assert c.final_view().metadata["latency_ms"] > 100

    def test_invalid_quorum_rejected(self, cassandra_setup):
        _, _, node = cassandra_setup
        with pytest.raises(ValueError):
            CassandraBinding(node, strong_read_quorum=1)

    def test_unsupported_operation(self, cassandra_setup):
        env, _, node = cassandra_setup
        client = CorrectableClient(CassandraBinding(node))
        c = client.invoke_strong(custom("scan", "tbl"))
        env.run_until_idle()
        assert c.is_error()


class TestZooKeeperQueueBinding:
    def test_levels(self, zookeeper_setup):
        _, _, node = zookeeper_setup
        binding = ZooKeeperQueueBinding(node, "/queue")
        assert binding.consistency_levels() == [WEAK, STRONG]

    def test_icg_dequeue_two_views(self, zookeeper_setup):
        env, _, node = zookeeper_setup
        client = CorrectableClient(ZooKeeperQueueBinding(node, "/queue"))
        c = client.invoke(dequeue("/queue"))
        env.run_until_idle()
        assert len(c.views()) == 2
        assert c.views()[0].value["item"] == "item-0"
        assert c.value()["item"] == "item-0"

    def test_strong_dequeue_single_view(self, zookeeper_setup):
        env, _, node = zookeeper_setup
        client = CorrectableClient(ZooKeeperQueueBinding(node, "/queue"))
        c = client.invoke_strong(dequeue("/queue"))
        env.run_until_idle()
        assert len(c.views()) == 1
        assert c.value()["item"] == "item-0"

    def test_weak_dequeue_surfaces_only_preliminary(self, zookeeper_setup):
        env, cluster, node = zookeeper_setup
        client = CorrectableClient(ZooKeeperQueueBinding(node, "/queue"))
        c = client.invoke_weak(dequeue("/queue"))
        env.run_until_idle()
        assert c.is_final()
        assert c.final_view().consistency == WEAK
        # The operation still executed in the background.
        for server in cluster.servers:
            assert server.tree.child_count("/queue") == 9

    def test_enqueue(self, zookeeper_setup):
        env, cluster, node = zookeeper_setup
        client = CorrectableClient(ZooKeeperQueueBinding(node, "/queue"))
        c = client.invoke(enqueue("/queue", "new-item"))
        env.run_until_idle()
        assert c.is_final()
        for server in cluster.servers:
            assert server.tree.child_count("/queue") == 11

    def test_default_queue_path_used_when_key_missing(self, zookeeper_setup):
        env, _, node = zookeeper_setup
        binding = ZooKeeperQueueBinding(node, "/queue")
        client = CorrectableClient(binding)
        from repro.core.operations import Operation
        c = client.invoke(Operation(name="dequeue", key=None, is_read=False))
        env.run_until_idle()
        assert c.value()["item"] == "item-0"

    def test_unsupported_operation(self, zookeeper_setup):
        env, _, node = zookeeper_setup
        client = CorrectableClient(ZooKeeperQueueBinding(node, "/queue"))
        c = client.invoke_strong(read("some-key"))
        env.run_until_idle()
        assert c.is_error()
