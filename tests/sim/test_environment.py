"""Tests for the SimEnvironment convenience bundle."""

import pytest

from repro.sim.environment import SimEnvironment
from repro.sim.topology import Region, Topology


class TestEnvironment:
    def test_default_topology_is_ec2(self):
        env = SimEnvironment(seed=1)
        assert env.topology.rtt(Region.IRL, Region.FRK) == pytest.approx(20.0)

    def test_custom_topology_used(self):
        topo = Topology(rtts={frozenset({Region.IRL, Region.FRK}): 5.0},
                        jitter_fraction=0.0)
        env = SimEnvironment(seed=1, topology=topo)
        assert env.topology.rtt(Region.IRL, Region.FRK) == 5.0

    def test_rng_streams_are_deterministic_and_independent(self):
        env_a, env_b = SimEnvironment(seed=4), SimEnvironment(seed=4)
        assert env_a.rng("x").random() == env_b.rng("x").random()
        assert env_a.rng("x").random() != SimEnvironment(seed=5).rng("x").random()

    def test_now_tracks_scheduler(self):
        env = SimEnvironment(seed=1)
        env.scheduler.schedule(12.5, lambda: None)
        env.run_until_idle()
        assert env.now() == pytest.approx(12.5)

    def test_run_until(self):
        env = SimEnvironment(seed=1)
        fired = []
        env.scheduler.schedule(10, fired.append, 1)
        env.scheduler.schedule(100, fired.append, 2)
        env.run(until=50)
        assert fired == [1]
        assert env.now() == 50
