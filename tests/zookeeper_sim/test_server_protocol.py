"""End-to-end protocol tests for the simulated ZooKeeper ensemble."""

import pytest
from history import RecordingSink

from repro.sim.environment import SimEnvironment
from repro.sim.topology import Region, Topology
from repro.zookeeper_sim.cluster import ZooKeeperCluster
from repro.zookeeper_sim.queue_recipe import DistributedQueue


def _setup(leader=Region.IRL, followers=(Region.FRK, Region.VRG),
           queue_items=10):
    env = SimEnvironment(seed=3, topology=Topology(jitter_fraction=0.0))
    cluster = ZooKeeperCluster(env, leader_region=leader,
                               follower_regions=followers)
    if queue_items:
        cluster.preload_queue("/queue",
                              [f"item-{i}" for i in range(queue_items)])
    return env, cluster


class TestBasicOperations:
    def test_create_replicates_to_all_servers(self):
        env, cluster = _setup(queue_items=0)
        client = cluster.add_client("c", Region.IRL, Region.FRK)
        client.submit_sink("create", "/node", RecordingSink(), "payload")
        env.run_until_idle()
        for server in cluster.servers:
            assert server.tree.get("/node") == "payload"

    def test_reads_served_locally_by_contacted_server(self):
        env, cluster = _setup()
        client = cluster.add_client("c", Region.FRK, Region.FRK)
        sink = RecordingSink()
        client.submit_sink("get_children", "/queue", sink)
        env.run_until_idle()
        (final,) = sink.calls
        assert final.kind == "final" and len(final.value) == 10
        # A local read never involves the leader.
        assert final.latency_ms < 10.0

    def test_delete_propagates(self):
        env, cluster = _setup(queue_items=3)
        client = cluster.add_client("c", Region.IRL, Region.FRK)
        client.submit_sink("delete", "/queue/item-0000000000", RecordingSink())
        env.run_until_idle()
        for server in cluster.servers:
            assert server.tree.child_count("/queue") == 2

    def test_delete_missing_node_reports_error(self):
        env, cluster = _setup(queue_items=0)
        client = cluster.add_client("c", Region.IRL, Region.FRK)
        sink = RecordingSink()
        client.submit_sink("delete", "/ghost", sink)
        env.run_until_idle()
        (error,) = sink.calls
        assert error.kind == "error"
        assert "NoNode" in error.error

    def test_unknown_operation_rejected(self):
        env, cluster = _setup(queue_items=0)
        client = cluster.add_client("c", Region.IRL, Region.FRK)
        sink = RecordingSink()
        client.submit_sink("frobnicate", "/x", sink)
        env.run_until_idle()
        assert sink.kinds() == ["error"]


class TestTotalOrder:
    def test_enqueues_from_different_clients_totally_ordered(self):
        env, cluster = _setup(queue_items=0)
        for server in cluster.servers:
            server.tree.create("/q")
        c1 = cluster.add_client("c1", Region.FRK, Region.FRK)
        c2 = cluster.add_client("c2", Region.VRG, Region.VRG)
        for i in range(5):
            c1.submit_sink("enqueue", "/q", RecordingSink(), f"frk-{i}")
            c2.submit_sink("enqueue", "/q", RecordingSink(), f"vrg-{i}")
        env.run_until_idle()
        orders = []
        for server in cluster.servers:
            children = server.tree.get_children("/q")
            orders.append([server.tree.get(f"/q/{c}") for c in children])
        assert orders[0] == orders[1] == orders[2]
        assert len(orders[0]) == 10

    def test_zxids_applied_in_order_on_every_server(self):
        env, cluster = _setup(queue_items=0)
        client = cluster.add_client("c", Region.FRK, Region.FRK)
        for i in range(8):
            client.submit_sink("create", f"/node{i}", RecordingSink(), i)
        env.run_until_idle()
        for server in cluster.servers:
            assert server.commit_log.last_applied == 8
            assert server.transactions_applied == 8


class TestLatencyShape:
    def test_write_through_follower_slower_than_through_leader(self):
        latencies = {}
        for label, connect in (("follower", Region.FRK), ("leader", Region.IRL)):
            env, cluster = _setup(queue_items=0)
            for server in cluster.servers:
                server.tree.create("/q")
            client = cluster.add_client("c", Region.IRL, connect)
            sink = RecordingSink()
            client.submit_sink("enqueue", "/q", sink, "x")
            env.run_until_idle()
            (final,) = sink.answers
            latencies[label] = final.latency_ms
        assert latencies["leader"] < latencies["follower"]

    def test_preliminary_much_faster_than_final_with_remote_leader(self):
        env, cluster = _setup(leader=Region.VRG,
                              followers=(Region.IRL, Region.FRK))
        client = cluster.add_client("c", Region.IRL, Region.IRL)
        sink = RecordingSink()
        client.submit_sink("dequeue", "/queue", sink, icg=True)
        env.run_until_idle()
        prelim, final = sink.calls
        assert (prelim.kind, final.kind) == ("preliminary", "final")
        assert prelim.latency_ms < 10.0
        assert final.latency_ms > 100.0


class TestCzkDequeue:
    def test_dequeue_returns_head_and_removes_it(self):
        env, cluster = _setup(queue_items=3)
        client = cluster.add_client("c", Region.FRK, Region.FRK)
        sink = RecordingSink()
        client.submit_sink("dequeue", "/queue", sink)
        env.run_until_idle()
        (final,) = sink.calls
        assert final.value["item"] == "item-0"
        assert final.value["remaining"] == 2
        for server in cluster.servers:
            assert server.tree.child_count("/queue") == 2

    def test_dequeue_empty_queue_returns_none(self):
        env, cluster = _setup(queue_items=0)
        for server in cluster.servers:
            server.tree.create("/queue")
        client = cluster.add_client("c", Region.FRK, Region.FRK)
        sink = RecordingSink()
        client.submit_sink("dequeue", "/queue", sink)
        env.run_until_idle()
        (final,) = sink.calls
        assert final.kind == "final" and final.value["item"] is None

    def test_concurrent_dequeues_get_distinct_items(self):
        env, cluster = _setup(queue_items=6)
        clients = [cluster.add_client(f"c{i}", Region.FRK, Region.FRK)
                   for i in range(3)]
        sinks = [RecordingSink() for _ in clients]
        for client, sink in zip(clients, sinks):
            client.submit_sink("dequeue", "/queue", sink, icg=True)
        env.run_until_idle()
        got = [final.value["item"] for sink in sinks for final in sink.answers]
        assert len(got) == 3
        assert len(set(got)) == 3

    def test_concurrent_preliminary_simulations_are_distinct(self):
        env, cluster = _setup(queue_items=6)
        clients = [cluster.add_client(f"c{i}", Region.FRK, Region.FRK)
                   for i in range(3)]
        calls = []
        for client in clients:
            client.submit_sink("dequeue", "/queue", RecordingSink(calls=calls),
                               icg=True)
        env.run_until_idle()
        preliminary_items = [call.value["item"] for call in calls
                             if call.kind == "preliminary"]
        assert len(preliminary_items) == 3
        assert len(set(preliminary_items)) == 3

    def test_a_simulated_delete_hides_the_node_from_later_simulations(self):
        """An ICG delete's preliminary names the node, and a dequeue
        simulated after it on the same server skips that node."""
        env, cluster = _setup(queue_items=3)
        deleter, dequeuer = (cluster.add_client(name, Region.FRK, Region.FRK)
                             for name in ("deleter", "dequeuer"))
        deleted, dequeued = RecordingSink(), RecordingSink()
        deleter.submit_sink("delete", "/queue/item-0000000000", deleted,
                            icg=True)
        dequeuer.submit_sink("dequeue", "/queue", dequeued, icg=True)
        env.run_until_idle()
        assert [(c.kind, c.value) for c in deleted.calls][0] == \
            ("preliminary", {"deleted": "/queue/item-0000000000"})
        preliminary = dequeued.calls[0]
        assert preliminary.kind == "preliminary"
        assert (preliminary.value["item"], preliminary.value["name"]) == \
            ("item-1", "item-0000000001")

    def test_exhaustive_drain_never_duplicates(self):
        env, cluster = _setup(queue_items=20)
        client = cluster.add_client("c", Region.FRK, Region.FRK)
        drained = []

        def _next():
            client.submit_sink("dequeue", "/queue", RecordingSink(_done))

        def _done(final):
            item = final.value["item"]
            if item is None:
                return
            drained.append(item)
            _next()

        _next()
        env.run_until_idle()
        assert drained == [f"item-{i}" for i in range(20)]


class TestQueueRecipe:
    def test_recipe_dequeue_returns_head(self):
        env, cluster = _setup(queue_items=4)
        client = cluster.add_client("c", Region.FRK, Region.FRK)
        queue = DistributedQueue(client, "/queue")
        sink = RecordingSink()
        queue.dequeue_recipe(sink)
        env.run_until_idle()
        (final,) = sink.calls
        assert final.value == {"item": "item-0", "name": "item-0000000000",
                               "remaining": 3}
        assert final.stamp is None and final.latency_ms > 0
        assert queue.retries == 0

    def test_recipe_contention_causes_retries_but_no_duplicates(self):
        env, cluster = _setup(queue_items=10)
        clients = [cluster.add_client(f"c{i}", Region.FRK, Region.FRK)
                   for i in range(4)]
        queues = [DistributedQueue(c, "/queue") for c in clients]
        got = []

        def _drain(queue):
            def _next():
                queue.dequeue_recipe(RecordingSink(_done))

            def _done(answer):
                if answer.kind == "final" and answer.value["item"] is not None:
                    got.append(answer.value["item"])
                    _next()

            _next()

        for queue in queues:
            _drain(queue)
        env.run_until_idle()
        assert sorted(got) == sorted(f"item-{i}" for i in range(10))
        assert sum(q.retries for q in queues) > 0

    def test_recipe_empty_queue(self):
        env, cluster = _setup(queue_items=0)
        for server in cluster.servers:
            server.tree.create("/queue")
        client = cluster.add_client("c", Region.FRK, Region.FRK)
        queue = DistributedQueue(client, "/queue")
        sink = RecordingSink()
        queue.dequeue_recipe(sink)
        env.run_until_idle()
        assert sink.calls == [("final", {"item": None, "name": None,
                                         "remaining": 0}, None,
                               sink.calls[0].latency_ms, False, False)]

    def test_recipe_on_a_missing_queue_fails_with_no_node(self):
        env, cluster = _setup(queue_items=0)
        client = cluster.add_client("c", Region.FRK, Region.FRK)
        queue = DistributedQueue(client, "/tasks")
        sink = RecordingSink()
        queue.dequeue_recipe(sink)
        env.run_until_idle()
        (error,) = sink.calls
        assert error.kind == "error" and "NoNode" in str(error.error)
        assert queue.retries == 0

    def test_enqueue_under_a_created_queue_node(self):
        env, cluster = _setup(queue_items=0)
        client = cluster.add_client("c", Region.FRK, Region.FRK)
        sink = RecordingSink()
        client.submit_sink("create", "/tasks", sink)
        env.run_until_idle()
        client.submit_sink("enqueue", "/tasks", sink, "job-1")
        env.run_until_idle()
        assert sink.kinds() == ["final", "final"]
        for server in cluster.servers:
            assert server.tree.child_count("/tasks") == 1


class TestClusterAssembly:
    def test_server_in_prefers_leader(self):
        env, cluster = _setup()
        assert cluster.server_in(Region.IRL) is cluster.leader

    def test_server_in_unknown_region_raises(self):
        env, cluster = _setup()
        with pytest.raises(KeyError):
            cluster.server_in("mars-east-1")

    def test_colocated_client_shares_host(self):
        env, cluster = _setup()
        client = cluster.add_client("c", Region.FRK, Region.FRK, colocated=True)
        assert client.host == cluster.server_in(Region.FRK).host
