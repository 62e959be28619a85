"""Tests for the network-level fault primitives: region partitions,
link degradation, and node slowdown."""

import pytest

from repro.sim.environment import SimEnvironment
from repro.sim.node import Node
from repro.sim.topology import Region, Topology


class Recorder(Node):
    """A node that records every message it receives."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received = []

    def handle_message(self, message):
        self.received.append(message)


def _make_env():
    return SimEnvironment(seed=5, topology=Topology(jitter_fraction=0.0))


class TestRegionPartition:
    def test_region_partition_drops_both_directions(self):
        env = _make_env()
        a = Recorder("a", Region.IRL, env.network)
        b = Recorder("b", Region.FRK, env.network)
        env.network.partition_regions(Region.IRL, Region.FRK)
        a.send("b", "hi")
        b.send("a", "hi")
        env.run_until_idle()
        assert b.received == []
        assert a.received == []
        assert env.network.messages_dropped == 2

    def test_region_partition_spares_other_regions(self):
        env = _make_env()
        a = Recorder("a", Region.IRL, env.network)
        Recorder("b", Region.FRK, env.network)
        c = Recorder("c", Region.VRG, env.network)
        env.network.partition_regions(Region.IRL, Region.FRK)
        a.send("c", "hi")
        env.run_until_idle()
        assert len(c.received) == 1

    def test_heal_regions_restores_delivery_round_trip(self):
        env = _make_env()
        a = Recorder("a", Region.IRL, env.network)
        b = Recorder("b", Region.FRK, env.network)
        env.network.partition_regions(Region.IRL, Region.FRK)
        a.send("b", "lost")
        env.run_until_idle()
        env.network.heal_regions(Region.IRL, Region.FRK)
        a.send("b", "delivered")
        b.send("a", "delivered-back")
        env.run_until_idle()
        assert [m.kind for m in b.received] == ["delivered"]
        assert [m.kind for m in a.received] == ["delivered-back"]

    def test_region_partition_affects_nodes_registered_later(self):
        env = _make_env()
        a = Recorder("a", Region.IRL, env.network)
        env.network.partition_regions(Region.IRL, Region.FRK)
        late = Recorder("late", Region.FRK, env.network)
        a.send("late", "hi")
        env.run_until_idle()
        assert late.received == []

    def test_node_partition_heal_round_trip(self):
        env = _make_env()
        a = Recorder("a", Region.IRL, env.network)
        b = Recorder("b", Region.FRK, env.network)
        env.network.partition("a", "b")
        assert env.network.is_partitioned("a", "b")
        a.send("b", "lost")
        env.run_until_idle()
        env.network.heal("a", "b")
        assert not env.network.is_partitioned("a", "b")
        a.send("b", "delivered")
        env.run_until_idle()
        assert [m.kind for m in b.received] == ["delivered"]

    def test_partitioned_messages_still_charged_to_link(self):
        env = _make_env()
        a = Recorder("a", Region.IRL, env.network)
        Recorder("b", Region.FRK, env.network)
        env.network.partition_regions(Region.IRL, Region.FRK)
        a.send("b", "hi", size_bytes=123)
        env.run_until_idle()
        assert env.network.link_stats("a", "b").bytes == 123


class TestLinkDegradation:
    def test_degraded_node_link_adds_latency(self):
        env = _make_env()
        a = Recorder("a", Region.IRL, env.network)
        b = Recorder("b", Region.FRK, env.network)
        env.network.degrade_link("a", "b", 50.0)
        a.send("b", "hi")
        env.run_until_idle()
        # Base IRL-FRK one-way is 10 ms; the degradation adds 50 ms.
        assert env.now() == pytest.approx(60.0)
        assert len(b.received) == 1

    def test_degraded_region_link_adds_latency_and_restores(self):
        env = _make_env()
        a = Recorder("a", Region.IRL, env.network)
        b = Recorder("b", Region.FRK, env.network)
        assert env.network.link_extra_ms("a", "b") == 0.0
        env.network.degrade_link(f"region:{Region.IRL}",
                                 f"region:{Region.FRK}", 40.0)
        assert env.network.link_extra_ms("a", "b") == pytest.approx(40.0)
        env.network.restore_link(f"region:{Region.IRL}",
                                 f"region:{Region.FRK}")
        a.send("b", "hi")
        env.run_until_idle()
        assert env.now() == pytest.approx(10.0)

    def test_degradation_rejects_negative_latency(self):
        env = _make_env()
        with pytest.raises(ValueError):
            env.network.degrade_link("a", "b", -1.0)

    @pytest.mark.parametrize("extra_ms", [float("nan"), float("inf"), True])
    def test_degradation_rejects_a_latency_that_is_no_latency(self, extra_ms):
        """A NaN or infinite delay would reach the scheduler's heap as a
        delivery instant that never comes in order."""
        env = _make_env()
        with pytest.raises(ValueError, match="non-negative and finite"):
            env.network.degrade_link("a", "b", extra_ms)
        assert env.network.link_extra_ms("a", "b") == 0.0


class TestSlowdown:
    def test_slow_down_scales_service_time(self, scheduler):
        env = _make_env()
        node = Recorder("n", Region.IRL, env.network)
        node.slow_down(10.0)
        done = []
        node._enqueue(2.0, lambda: done.append(env.now()), ())
        env.run_until_idle()
        assert done == [pytest.approx(20.0)]

    def test_restore_speed(self):
        env = _make_env()
        node = Recorder("n", Region.IRL, env.network)
        node.slow_down(10.0)
        node.restore_speed()
        done = []
        node._enqueue(2.0, lambda: done.append(env.now()), ())
        env.run_until_idle()
        assert done == [pytest.approx(2.0)]

    def test_slow_down_rejects_non_positive_factor(self):
        env = _make_env()
        node = Recorder("n", Region.IRL, env.network)
        with pytest.raises(ValueError):
            node.slow_down(0.0)

    @pytest.mark.parametrize("factor", [-2.0, float("nan"), float("inf"),
                                        True])
    def test_slow_down_rejects_a_factor_that_is_no_factor(self, factor):
        """A NaN or infinite factor would make every later service time
        NaN or infinite."""
        env = _make_env()
        node = Recorder("n", Region.IRL, env.network)
        with pytest.raises(ValueError, match="positive and finite"):
            node.slow_down(factor)
        assert node.slowdown_factor == 1.0
