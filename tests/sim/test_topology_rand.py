"""Tests for the region topology, latency model, and RNG derivation."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.sim.rand import derive_rng, derive_seed
from repro.sim.topology import (
    INTRA_REGION_RTT_MS,
    Region,
    Topology,
    ec2_topology,
    replica_regions_default,
    replica_regions_twissandra,
    twissandra_topology,
)


class TestRtts:
    def test_paper_rtts(self):
        topo = Topology(jitter_fraction=0.0)
        assert topo.rtt(Region.IRL, Region.FRK) == pytest.approx(20.0)
        assert topo.rtt(Region.IRL, Region.VRG) == pytest.approx(83.0)

    def test_rtt_is_symmetric(self):
        topo = Topology()
        assert topo.rtt(Region.FRK, Region.VRG) == topo.rtt(Region.VRG, Region.FRK)

    def test_same_region_uses_intra_rtt(self):
        topo = Topology()
        assert topo.rtt(Region.IRL, Region.IRL) == INTRA_REGION_RTT_MS

    def test_unknown_pair_raises(self):
        topo = Topology()
        with pytest.raises(KeyError):
            topo.rtt(Region.IRL, "mars-east-1")

    def test_set_rtt_overrides(self):
        topo = Topology()
        topo.set_rtt(Region.IRL, Region.FRK, 99.0)
        assert topo.rtt(Region.FRK, Region.IRL) == 99.0

    def test_set_rtt_same_region_rejected(self):
        with pytest.raises(ValueError):
            Topology().set_rtt(Region.IRL, Region.IRL, 1.0)

    def test_regions_listing(self):
        regions = list(Topology().regions())
        for region in (Region.IRL, Region.FRK, Region.VRG):
            assert region in regions


class TestNegativeLatencies:
    """A negative latency would deliver before the send and run the
    simulated clock backwards; a negative jitter bound would be ignored.
    Every way in refuses them and keeps what was there."""

    @pytest.mark.parametrize("kwargs", [
        {"rtts": {frozenset({Region.IRL, Region.FRK}): -80.0}},
        {"intra_region_rtt_ms": -10.0},
        {"loopback_rtt_ms": -0.3},
        {"jitter_fraction": -0.5},
    ], ids=["rtts", "intra_region_rtt_ms", "loopback_rtt_ms",
            "jitter_fraction"])
    def test_constructor_rejects(self, kwargs):
        with pytest.raises(ValueError):
            Topology(**kwargs)

    @pytest.mark.parametrize("name", ["intra_region_rtt_ms",
                                      "loopback_rtt_ms", "jitter_fraction"])
    def test_setter_rejects(self, name):
        topo = Topology()
        before = getattr(topo, name)
        with pytest.raises(ValueError):
            setattr(topo, name, -0.5)
        assert getattr(topo, name) == before

    def test_set_rtt_rejects(self):
        topo = Topology()
        with pytest.raises(ValueError):
            topo.set_rtt(Region.IRL, Region.FRK, -80.0)
        assert topo.rtt(Region.IRL, Region.FRK) == pytest.approx(20.0)

    @pytest.mark.parametrize("edit", [
        lambda topo: Topology(rtts={frozenset({Region.IRL, Region.FRK}):
                                    float("nan")}),
        lambda topo: topo.set_rtt(Region.IRL, Region.FRK, float("nan")),
        lambda topo: setattr(topo, "intra_region_rtt_ms", float("nan")),
        lambda topo: setattr(topo, "loopback_rtt_ms", float("nan")),
        lambda topo: setattr(topo, "jitter_fraction", float("nan")),
    ], ids=["rtts", "set_rtt", "intra_region_rtt_ms", "loopback_rtt_ms",
            "jitter_fraction"])
    def test_nan_rejected(self, edit):
        topo = Topology()
        with pytest.raises(ValueError):
            edit(topo)
        assert topo.rtt(Region.IRL, Region.FRK) == pytest.approx(20.0)
        assert topo.jitter_fraction == 0.05

    @pytest.mark.parametrize("value", [0.0, 2.5])
    def test_zero_and_positive_accepted(self, value):
        topo = Topology(intra_region_rtt_ms=value, loopback_rtt_ms=value,
                        jitter_fraction=value)
        topo.set_rtt(Region.IRL, Region.FRK, value)
        assert topo.rtt(Region.IRL, Region.IRL) == value
        assert topo.rtt(Region.IRL, Region.FRK) == value


class TestOneWayDelays:
    def test_one_way_without_jitter_is_half_rtt(self):
        topo = Topology(jitter_fraction=0.0)
        assert topo.one_way(Region.IRL, Region.FRK) == pytest.approx(10.0)

    def test_jitter_bounded(self):
        topo = Topology(jitter_fraction=0.1, rng=random.Random(3))
        base = 10.0
        for _ in range(200):
            delay = topo.one_way(Region.IRL, Region.FRK)
            assert base <= delay <= base * 1.1 + 1e-9

    def test_same_host_uses_loopback(self):
        topo = Topology(jitter_fraction=0.0)
        assert topo.one_way(Region.IRL, Region.IRL, same_host=True) < \
            topo.one_way(Region.IRL, Region.IRL)

    def test_factories(self):
        assert isinstance(ec2_topology(), Topology)
        assert isinstance(twissandra_topology(), Topology)

    def test_default_placements(self):
        assert set(replica_regions_default()) == {Region.FRK, Region.IRL,
                                                  Region.VRG}
        assert set(replica_regions_twissandra()) == {Region.VRG, Region.NCA,
                                                     Region.ORE}


class TestRandDerivation:
    def test_same_inputs_same_seed(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_different_names_different_seed(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_different_master_seeds_differ(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_derive_rng_reproducible(self):
        a = derive_rng(7, "x")
        b = derive_rng(7, "x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    @given(st.integers(), st.text(max_size=30))
    def test_derive_seed_in_64bit_range(self, seed, name):
        value = derive_seed(seed, name)
        assert 0 <= value < 2 ** 64
