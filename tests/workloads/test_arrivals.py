"""Arrival-process tests: rates, burst phasing, and seed determinism."""

import math

import pytest

from repro.sim.rand import derive_rng
from repro.workloads.arrivals import (
    ARRIVAL_KINDS,
    BurstArrivals,
    PoissonArrivals,
    UniformArrivals,
    arrival_trace,
    make_arrival_process,
)


class TestUniformArrivals:
    def test_constant_gap(self):
        process = UniformArrivals(rate_ops_s=200)
        assert [process.next_gap_ms() for _ in range(5)] == [5.0] * 5

    def test_trace_is_exact_schedule(self):
        process = UniformArrivals(rate_ops_s=100)
        assert arrival_trace(process, 3) == [10.0, 20.0, 30.0]

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            UniformArrivals(0)
        with pytest.raises(ValueError):
            UniformArrivals(-5)


class TestPoissonArrivals:
    def test_mean_gap_matches_rate(self):
        process = PoissonArrivals(100, derive_rng(42, "poisson"))
        gaps = [process.next_gap_ms() for _ in range(20_000)]
        assert sum(gaps) / len(gaps) == pytest.approx(10.0, rel=0.05)

    def test_gaps_are_positive_and_varied(self):
        process = PoissonArrivals(50, derive_rng(1, "p"))
        gaps = [process.next_gap_ms() for _ in range(100)]
        assert all(g > 0 for g in gaps)
        assert len(set(round(g, 6) for g in gaps)) > 50

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0, derive_rng(1, "p"))


class TestBurstArrivals:
    def test_silent_off_phase_produces_gaps(self):
        # 100 ops/s for 100 ms, then 900 ms of silence: arrivals cluster at
        # the start of each 1 s period.
        process = BurstArrivals(100, derive_rng(7, "burst"),
                                on_ms=100.0, off_ms=900.0)
        times = arrival_trace(process, 200)
        in_burst = [t for t in times if (t % 1000.0) <= 100.0]
        assert len(in_burst) == len(times)

    def test_mean_rate_reported(self):
        process = BurstArrivals(400, derive_rng(7, "b"),
                                on_ms=500.0, off_ms=1_500.0,
                                off_rate_ops_s=0.0)
        assert process.rate_ops_s == pytest.approx(100.0)

    def test_off_rate_fills_the_quiet_phase(self):
        process = BurstArrivals(1_000, derive_rng(7, "b2"),
                                on_ms=100.0, off_ms=900.0,
                                off_rate_ops_s=50.0)
        times = arrival_trace(process, 2_000)
        off_phase = [t for t in times if (t % 1000.0) > 100.0]
        assert off_phase, "nonzero off rate must produce off-phase arrivals"

    def test_validation(self):
        rng = derive_rng(0, "x")
        with pytest.raises(ValueError):
            BurstArrivals(0, rng)
        with pytest.raises(ValueError):
            BurstArrivals(10, rng, off_rate_ops_s=-1)
        with pytest.raises(ValueError):
            BurstArrivals(10, rng, on_ms=0)


class TestNonFiniteParameters:
    """A NaN or infinite rate or phase length is refused when the process
    is built: an infinite rate made every gap zero (the run never
    advanced), a NaN one failed deep inside the scheduler after the whole
    cluster was built, and a NaN burst rate or phase length drew gaps
    silently."""

    @pytest.mark.parametrize("value", [math.nan, math.inf],
                             ids=["nan", "inf"])
    @pytest.mark.parametrize("build", [
        lambda v: UniformArrivals(v),
        lambda v: PoissonArrivals(v, derive_rng(0, "p")),
        lambda v: BurstArrivals(v, derive_rng(0, "b")),
        lambda v: BurstArrivals(10, derive_rng(0, "b"), on_ms=v),
        lambda v: BurstArrivals(10, derive_rng(0, "b"), off_ms=v),
        lambda v: BurstArrivals(10, derive_rng(0, "b"), off_rate_ops_s=v),
        lambda v: make_arrival_process("uniform", v, None),
        lambda v: make_arrival_process("poisson", v, derive_rng(0, "f")),
    ], ids=["uniform", "poisson", "burst-rate", "burst-on-ms",
            "burst-off-ms", "burst-off-rate", "factory-uniform",
            "factory-poisson"])
    def test_rejected_at_construction(self, build, value):
        with pytest.raises(ValueError):
            build(value)


class TestFactory:
    def test_builds_every_kind(self):
        for kind in ARRIVAL_KINDS:
            process = make_arrival_process(kind, 100,
                                           derive_rng(3, f"f-{kind}"))
            assert process.next_gap_ms() > 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_arrival_process("fractal", 100, derive_rng(3, "f"))

    def test_burst_params_forwarded(self):
        process = make_arrival_process("burst", 200, derive_rng(3, "f"),
                                       on_ms=50.0, off_ms=450.0)
        assert process.on_ms == 50.0 and process.off_ms == 450.0


class TestDeterminism:
    """Same seed ⇒ same arrival trace, for every process kind."""

    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_same_seed_same_trace(self, kind):
        def trace():
            process = make_arrival_process(
                kind, 250, derive_rng(42, f"det-{kind}"))
            return arrival_trace(process, 500)

        assert trace() == trace()

    @pytest.mark.parametrize("kind", ("poisson", "burst"))
    def test_different_seeds_differ(self, kind):
        a = arrival_trace(make_arrival_process(
            kind, 250, derive_rng(1, "a")), 50)
        b = arrival_trace(make_arrival_process(
            kind, 250, derive_rng(2, "a")), 50)
        assert a != b

    def test_stream_independent_of_other_consumers(self):
        # The arrival stream is derived by label: another consumer drawing
        # from the same master seed does not shift the arrivals.
        rng = derive_rng(42, "trace:arrivals")
        other = derive_rng(42, "trace:other")
        other.random()  # unrelated consumption
        a = arrival_trace(PoissonArrivals(100, rng), 100)
        b = arrival_trace(
            PoissonArrivals(100, derive_rng(42, "trace:arrivals")), 100)
        assert a == b
