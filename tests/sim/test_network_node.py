"""Tests for the network, message accounting, nodes, and processing queues."""

import pytest

from repro.sim.environment import SimEnvironment
from repro.sim.network import (
    EMPTY_LINK_STATS, MESSAGE_HEADER_BYTES, Message, estimate_payload_size)
from repro.sim.node import Node
from repro.sim.topology import Region, Topology


class Recorder(Node):
    """A node that records every message it receives."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received = []

    def handle_message(self, message):
        self.received.append(message)


class Echo(Node):
    """A node with a dispatching handler (``on_ping``)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pings = 0

    def on_ping(self, message):
        self.pings += 1
        self.send(message.src, "pong", {"n": self.pings})


def _make_env():
    return SimEnvironment(seed=5, topology=Topology(jitter_fraction=0.0))


class TestDelivery:
    def test_message_delivered_after_one_way_latency(self):
        env = _make_env()
        a = Recorder("a", Region.IRL, env.network)
        b = Recorder("b", Region.FRK, env.network)
        a.send("b", "hello", {"x": 1})
        env.run_until_idle()
        assert len(b.received) == 1
        assert env.now() == pytest.approx(10.0)

    def test_same_region_latency_is_small(self):
        env = _make_env()
        Recorder("a", Region.IRL, env.network)
        b = Recorder("b", Region.IRL, env.network)
        env.network.send("a", "b", "hi")
        env.run_until_idle()
        assert env.now() == pytest.approx(1.0)
        assert len(b.received) == 1

    def test_same_host_latency_is_loopback(self):
        env = _make_env()
        Recorder("a", Region.IRL, env.network, host="h1")
        Recorder("b", Region.IRL, env.network, host="h1")
        env.network.send("a", "b", "hi")
        env.run_until_idle()
        assert env.now() == pytest.approx(0.15)

    def test_unknown_destination_raises(self):
        env = _make_env()
        Recorder("a", Region.IRL, env.network)
        with pytest.raises(KeyError):
            env.network.send("a", "ghost", "hi")

    def test_unknown_source_raises(self):
        env = _make_env()
        Recorder("a", Region.IRL, env.network)
        with pytest.raises(KeyError, match="unknown source node: ghost"):
            env.network.fused_route("ghost", "a")

    def test_duplicate_node_name_rejected(self):
        env = _make_env()
        Recorder("a", Region.IRL, env.network)
        with pytest.raises(ValueError):
            Recorder("a", Region.FRK, env.network)

    def test_dispatch_by_kind(self):
        env = _make_env()
        client = Recorder("client", Region.IRL, env.network)
        echo = Echo("echo", Region.FRK, env.network)
        client.send("echo", "ping")
        env.run_until_idle()
        assert echo.pings == 1
        assert client.received[0].kind == "pong"

    def test_missing_handler_raises(self):
        env = _make_env()
        Echo("echo", Region.FRK, env.network)
        Recorder("client", Region.IRL, env.network)
        env.network.send("client", "echo", "unknown_kind")
        with pytest.raises(NotImplementedError):
            env.run_until_idle()


class TestFaults:
    def test_crashed_node_drops_messages(self):
        env = _make_env()
        Recorder("a", Region.IRL, env.network)
        b = Recorder("b", Region.FRK, env.network)
        b.crash()
        env.network.send("a", "b", "hi")
        env.run_until_idle()
        assert b.received == []
        assert env.network.messages_dropped == 1

    def test_recovered_node_receives_again(self):
        env = _make_env()
        Recorder("a", Region.IRL, env.network)
        b = Recorder("b", Region.FRK, env.network)
        b.crash()
        b.recover()
        env.network.send("a", "b", "hi")
        env.run_until_idle()
        assert len(b.received) == 1

    def test_partition_drops_both_directions(self):
        env = _make_env()
        a = Recorder("a", Region.IRL, env.network)
        b = Recorder("b", Region.FRK, env.network)
        env.network.partition("a", "b")
        env.network.send("a", "b", "x")
        env.network.send("b", "a", "y")
        env.run_until_idle()
        assert a.received == [] and b.received == []

    def test_heal_restores_delivery(self):
        env = _make_env()
        Recorder("a", Region.IRL, env.network)
        b = Recorder("b", Region.FRK, env.network)
        env.network.partition("a", "b")
        env.network.heal("a", "b")
        env.network.send("a", "b", "x")
        env.run_until_idle()
        assert len(b.received) == 1

    def test_crash_mid_flight_drops_message(self):
        env = _make_env()
        Recorder("a", Region.IRL, env.network)
        b = Recorder("b", Region.FRK, env.network)
        env.network.send("a", "b", "x")
        b.crash()
        env.run_until_idle()
        assert b.received == []


class TestAccounting:
    def test_bytes_counted_per_link(self):
        env = _make_env()
        Recorder("a", Region.IRL, env.network)
        Recorder("b", Region.FRK, env.network)
        env.network.send("a", "b", "x", size_bytes=100)
        env.network.send("b", "a", "y", size_bytes=50)
        assert env.network.link_stats("a", "b").bytes == 100
        assert env.network.bytes_between("a", "b") == 150
        assert env.network.bytes_touching("a") == 150
        assert env.network.total_bytes() == 150

    def test_default_size_includes_header(self):
        message = Message(src="a", dst="b", kind="k", payload={"key": "abc"})
        assert message.size_bytes >= MESSAGE_HEADER_BYTES

    def test_estimate_payload_size(self):
        assert estimate_payload_size(None) == 0
        assert estimate_payload_size("abcd") == 4
        assert estimate_payload_size(b"12345") == 5
        assert estimate_payload_size(7) == 8
        assert estimate_payload_size(["ab", "cd"]) == 4
        assert estimate_payload_size({"k": "vv"}) == 3
        assert estimate_payload_size(["é", "日本"]) == 2 + 6  # UTF-8 bytes
        assert estimate_payload_size([True, 1.5]) == 1 + 8
        assert estimate_payload_size(object()) == 32  # any other type

    def test_partitioned_messages_still_charged(self):
        env = _make_env()
        Recorder("a", Region.IRL, env.network)
        Recorder("b", Region.FRK, env.network)
        env.network.partition("a", "b")
        env.network.send("a", "b", "x", size_bytes=77)
        assert env.network.bytes_between("a", "b") == 77

    def test_unused_link_stats_are_zero(self):
        env = _make_env()
        Recorder("a", Region.IRL, env.network)
        stats = env.network.link_stats("a", "ghost")
        assert stats.messages == 0 and stats.bytes == 0

    def test_unused_link_stats_are_immutable(self):
        # Every unused link shares one zero instance; mutating it (a bug in
        # the caller) must fail loudly instead of corrupting other callers.
        env = _make_env()
        Recorder("a", Region.IRL, env.network)
        stats = env.network.link_stats("a", "ghost")
        with pytest.raises(AttributeError):
            stats.bytes = 5
        assert env.network.link_stats("x", "y").bytes == 0

    def test_used_link_stats_stay_mutable_records(self):
        env = _make_env()
        Recorder("a", Region.IRL, env.network)
        Recorder("b", Region.FRK, env.network)
        env.network.send("a", "b", "x", size_bytes=10)
        env.network.send("a", "b", "x", size_bytes=15)
        stats = env.network.link_stats("a", "b")
        assert stats.messages == 2 and stats.bytes == 25



class TestMessageSend:
    """``Network.send``: a :class:`Message` built per call and handed to
    ``fused_send_to``, nothing pooled."""

    def _pair(self):
        env = _make_env()
        a = Recorder("a", Region.IRL, env.network)
        b = Recorder("b", Region.FRK, env.network)
        return env, a, b

    def test_send_returns_the_accounted_message(self):
        env, _, b = self._pair()
        sent = []
        env.scheduler.schedule(3.0, lambda: sent.append(
            env.network.send("a", "b", "hello", {"x": 1}, size_bytes=64)))
        env.run_until_idle()
        (message,) = sent
        assert (message.src, message.dst, message.kind, message.payload,
                message.size_bytes, message.send_time) \
            == ("a", "b", "hello", {"x": 1}, 64, 3.0)
        assert b.received == [message]
        assert env.now() == pytest.approx(13.0)

    @pytest.mark.parametrize("size_bytes", [None, 0, -5])
    def test_unset_size_is_estimated_from_the_payload(self, size_bytes):
        env, _, _ = self._pair()
        payload = {"key": "abc", "n": 7}
        message = env.network.send("a", "b", "x", payload,
                                   size_bytes=size_bytes)
        expected = MESSAGE_HEADER_BYTES + estimate_payload_size(payload)
        assert message.size_bytes == expected
        assert env.network.link_stats("a", "b").bytes == expected

    def test_dead_sender_sends_nothing(self):
        env, a, b = self._pair()
        a.crash()
        env.network.send("a", "b", "x", size_bytes=10)
        assert env.scheduler.pending() == 0
        assert env.network.link_stats("a", "b") is EMPTY_LINK_STATS
        assert env.network.messages_sent == 0
        assert env.network.messages_dropped == 1
        env.run_until_idle()
        assert b.received == []

    def test_pool_stats_count_messages_built_and_pool_nothing(self):
        env, a, b = self._pair()
        env.network.send("a", "b", "x")
        env.network.send("b", "a", "y")
        b.crash()
        env.network.send("a", "b", "z")
        env.run_until_idle()
        assert env.network.pool_stats() == {
            "created": 3, "reused": 0, "recycled": 0, "free": 0}

    def test_fused_send_to_builds_no_message(self):
        env, a, _ = self._pair()
        done = []
        assert env.network.fused_send_to(a, "b", 40, done.append, ("hop",))
        env.run_until_idle()
        assert done == ["hop"]
        assert env.network.pool_stats()["created"] == 0
        assert env.network.link_stats("a", "b").bytes == 40

    def test_handler_is_resolved_once_per_kind(self):
        env = _make_env()
        client = Recorder("client", Region.IRL, env.network)
        echo = Echo("echo", Region.FRK, env.network)
        assert echo._handler_cache == {}
        client.send("echo", "ping")
        env.run_until_idle()
        handler = echo._handler_cache["ping"]
        client.send("echo", "ping")
        env.run_until_idle()
        assert echo.pings == 2
        assert echo._handler_cache == {"ping": handler}
        assert env.network.messages_delivered == 4


class TestProcessingQueue:
    """Work charged with ``Node._enqueue`` and served by the node's queue."""

    def _node(self):
        env = _make_env()
        return env, Recorder("n", Region.IRL, env.network)

    def test_idle_queue_serves_immediately(self):
        env, node = self._node()
        done = []
        node._enqueue(2.0, done.append, ("a",))
        env.run_until_idle()
        assert done == ["a"]
        assert env.now() == pytest.approx(2.0)

    def test_fifo_backlog_accumulates_delay(self):
        env, node = self._node()
        finish_times = []
        for _ in range(3):
            node._enqueue(5.0, lambda: finish_times.append(env.now()), ())
        env.run_until_idle()
        assert finish_times == [5.0, 10.0, 15.0]

    def test_queue_delay_reflects_backlog(self):
        env, node = self._node()
        node._enqueue(5.0, list, ())
        node._enqueue(5.0, list, ())
        assert node.queue.queue_delay() == pytest.approx(10.0)

    def test_utilization(self):
        env, node = self._node()
        node._enqueue(5.0, list, ())
        env.run_until_idle()
        env.scheduler.schedule(5.0, list)
        env.run_until_idle()
        assert node.queue.utilization(10.0) == pytest.approx(0.5)
        assert node.queue.utilization(0.0) == 0.0
        assert node.queue.jobs_processed == 1

    def test_job_after_idle_starts_at_now(self):
        env, node = self._node()
        node._enqueue(2.0, list, ())
        env.scheduler.schedule(10.0, list)
        env.run_until_idle()
        done = []
        node._enqueue(3.0, lambda: done.append(env.now()), ())
        env.run_until_idle()
        assert done == [13.0]
        assert node.queue.busy_time == pytest.approx(5.0)

    def test_zero_cost_jobs_keep_submission_order(self):
        env, node = self._node()
        order = []
        for name in "abc":
            node._enqueue(0.0, order.append, (name,))
        env.run_until_idle()
        assert order == list("abc")
        assert env.now() == 0.0

    def test_busy_time_counts_scaled_cost(self):
        env, node = self._node()
        node.slow_down(3.0)
        node._enqueue(2.0, list, ())
        node.restore_speed()
        node._enqueue(1.0, list, ())
        env.run_until_idle()
        assert node.queue.busy_time == pytest.approx(7.0)
        assert env.now() == pytest.approx(7.0)
