"""Tests for the region topology, latency model, and RNG derivation."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.sim.rand import derive_rng, derive_seed
from repro.sim.topology import (
    INTRA_REGION_RTT_MS,
    Region,
    Topology,
    replica_regions_default,
    replica_regions_twissandra,
    round_robin_regions,
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

    def test_constructor_rtts_override(self):
        topo = Topology(rtts={frozenset({Region.IRL, Region.FRK}): 99.0})
        assert topo.rtt(Region.FRK, Region.IRL) == 99.0
        assert topo.rtt(Region.IRL, Region.VRG) == pytest.approx(83.0)

    @pytest.mark.parametrize("pair", [
        frozenset({Region.IRL}),
        frozenset({Region.IRL, Region.FRK, Region.VRG}),
    ], ids=["same_region", "three_regions"])
    def test_a_pair_that_is_not_two_regions_is_rejected(self, pair):
        """A same-region entry would be stored and never read (``rtt``
        answers same-region pairs with ``intra_region_rtt_ms``)."""
        with pytest.raises(ValueError, match="two distinct regions"):
            Topology(rtts={pair: 5.0})

    def test_regions_listing(self):
        regions = list(Topology().regions())
        for region in (Region.IRL, Region.FRK, Region.VRG):
            assert region in regions


class TestNegativeLatencies:
    """A negative latency would deliver before the send and run the
    simulated clock backwards; a negative jitter bound would be ignored;
    an infinite one would deliver never.  A topology is fixed when it is
    built, so the constructor refuses them, naming the argument, and
    nothing can be assigned afterwards."""

    _ARGUMENTS = ["rtts", "intra_region_rtt_ms", "loopback_rtt_ms",
                  "jitter_fraction"]

    @staticmethod
    def _refused(name, value):
        kwargs = {name: value}
        if name == "rtts":
            kwargs = {"rtts": {frozenset({Region.IRL, Region.FRK}): value}}
            name = "rtt"
        with pytest.raises(ValueError, match=f"^{name} must be"):
            Topology(**kwargs)

    @pytest.mark.parametrize("name", _ARGUMENTS)
    def test_constructor_rejects(self, name):
        self._refused(name, -0.5)

    @pytest.mark.parametrize("name", _ARGUMENTS)
    def test_nan_rejected(self, name):
        self._refused(name, float("nan"))

    @pytest.mark.parametrize("name", _ARGUMENTS)
    def test_infinite_rejected(self, name):
        self._refused(name, float("inf"))

    @pytest.mark.parametrize("name", _ARGUMENTS)
    def test_bool_rejected(self, name):
        self._refused(name, True)

    @pytest.mark.parametrize("name", _ARGUMENTS[1:])
    def test_setter_rejects(self, name):
        """Networks read the topology once, at build: an assignment later
        would reach only routes not yet built, so it raises instead."""
        topo = Topology(jitter_fraction=0.0)
        with pytest.raises(AttributeError, match=f"cannot set '{name}'"):
            setattr(topo, name, 1.0)
        assert topo.rtt(Region.IRL, Region.IRL) == INTRA_REGION_RTT_MS
        assert topo.jitter_fraction == 0.0

    @pytest.mark.parametrize("value", [0.0, 2.5])
    def test_zero_and_positive_accepted(self, value):
        topo = Topology(
            rtts={frozenset({Region.IRL, Region.FRK}): value},
            intra_region_rtt_ms=value, loopback_rtt_ms=value,
            jitter_fraction=value)
        assert topo.rtt(Region.IRL, Region.IRL) == value
        assert topo.rtt(Region.IRL, Region.FRK) == value
        assert topo.loopback_rtt_ms == topo.jitter_fraction == value


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

    def test_default_placements(self):
        assert set(replica_regions_default()) == {Region.FRK, Region.IRL,
                                                  Region.VRG}
        assert set(replica_regions_twissandra()) == {Region.VRG, Region.NCA,
                                                     Region.ORE}

    def test_round_robin_placement(self):
        assert round_robin_regions(4) == replica_regions_default() + (
            Region.FRK,)
        assert round_robin_regions(3, [Region.VRG]) == (Region.VRG,) * 3
        with pytest.raises(ValueError, match="count must be positive"):
            round_robin_regions(0)
        with pytest.raises(ValueError, match="cycle must be non-empty"):
            round_robin_regions(2, [])


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
