"""Shape tests for the load-based harnesses (Figures 6, 7, 8, 11) at small scale."""

import pytest

from repro.bench.figures import FIG06, FIG07, FIG08, FIG11

_QUICK = dict(duration_ms=3_500.0, warmup_ms=1_000.0, cooldown_ms=500.0)


class TestFig06Shape:
    @pytest.fixture(scope="class")
    def records(self):
        return FIG06.run(workloads=("A",), systems=("C1", "C2", "CC2"),
                         thread_counts=(3,), record_count=200, seed=11,
                         **_QUICK)

    def _by_system(self, records):
        return {r["system"]: r for r in records}

    def test_cc2_preliminary_tracks_c1_latency(self, records):
        by_system = self._by_system(records)
        assert by_system["CC2"]["preliminary_mean_ms"] == pytest.approx(
            by_system["C1"]["final_mean_ms"], rel=0.35)

    def test_cc2_final_tracks_c2_latency(self, records):
        by_system = self._by_system(records)
        assert by_system["CC2"]["final_mean_ms"] == pytest.approx(
            by_system["C2"]["final_mean_ms"], rel=0.35)

    def test_c1_is_faster_than_c2(self, records):
        by_system = self._by_system(records)
        assert by_system["C1"]["final_mean_ms"] < \
            by_system["C2"]["final_mean_ms"]

    def test_cc2_throughput_not_higher_than_c2(self, records):
        by_system = self._by_system(records)
        assert by_system["CC2"]["throughput_ops_s"] <= \
            by_system["C2"]["throughput_ops_s"] * 1.05

    def test_report_renders(self, records):
        assert "throughput" in FIG06.render(records)


class TestFig07Shape:
    @pytest.fixture(scope="class")
    def records(self):
        return FIG07.run(configs=(("A", "latest"), ("B", "latest")),
                         thread_counts=(8,), record_count=500, seed=11,
                         **_QUICK)

    def test_update_heavy_workload_diverges_more(self, records):
        by_workload = {r["workload"]: r for r in records}
        assert by_workload["A"]["divergence_pct"] > \
            by_workload["B"]["divergence_pct"]

    def test_divergence_is_nonzero_but_bounded(self, records):
        by_workload = {r["workload"]: r for r in records}
        assert 0 < by_workload["A"]["divergence_pct"] < 60

    def test_reads_were_compared(self, records):
        for record in records:
            assert record["compared_reads"] > 50

    def test_report_renders(self, records):
        assert "divergence" in FIG07.render(records)


class TestFig08Shape:
    @pytest.fixture(scope="class")
    def records(self):
        return FIG08.run(configs=(("A", "latest"),), threads=6,
                         record_count=500, seed=11, **_QUICK)

    def test_bandwidth_ordering_c1_starcc2_cc2(self, records):
        by_system = {r["system"]: r for r in records}
        assert by_system["C1"]["kb_per_op"] < \
            by_system["*CC2"]["kb_per_op"] < \
            by_system["CC2"]["kb_per_op"]

    def test_confirmation_optimization_cuts_overhead(self, records):
        by_system = {r["system"]: r for r in records}
        assert by_system["*CC2"]["overhead_vs_c1_pct"] < \
            by_system["CC2"]["overhead_vs_c1_pct"]

    def test_report_renders(self, records):
        assert "kB/op" in FIG08.render(records)


class TestFig11Shape:
    @pytest.fixture(scope="class")
    def records(self):
        return FIG11.run(apps=("ads",), systems=("C2", "CC2"),
                         workloads=("B",), thread_counts=(2,),
                         profile_count=80, ref_count=160, seed=11,
                         duration_ms=3_000.0, warmup_ms=800.0,
                         cooldown_ms=400.0)

    def test_speculation_reduces_read_latency(self, records):
        by_system = {r["system"]: r for r in records}
        assert by_system["CC2"]["read_latency_mean_ms"] < \
            by_system["C2"]["read_latency_mean_ms"]

    def test_misspeculation_is_rare(self, records):
        for record in records:
            assert record["misspeculation_pct"] < 5.0

    def test_report_renders(self, records):
        assert "misspeculation" in FIG11.render(records)
