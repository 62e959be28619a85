"""Figure 5 — single-request read latencies in Cassandra for all quorum configurations."""

import pytest

from repro.bench.fig05_single_latency import latency_gap_ms
from repro.bench.figures import FIG05


@pytest.mark.benchmark(group="fig05")
def test_fig05_single_request_latency(benchmark, save_report):
    results = benchmark.pedantic(FIG05.run, rounds=1, iterations=1)
    save_report("fig05_cassandra_single_latency", FIG05.render(results))

    # Preliminary views track C1; final views track the matching quorum size.
    assert results["CC2"]["preliminary"]["mean_ms"] == pytest.approx(
        results["C1"]["final"]["mean_ms"], rel=0.25)
    assert results["CC2"]["final"]["mean_ms"] == pytest.approx(
        results["C2"]["final"]["mean_ms"], rel=0.25)
    assert results["CC3"]["final"]["mean_ms"] == pytest.approx(
        results["C3"]["final"]["mean_ms"], rel=0.25)
    # The speculation window grows with the distance to the quorum member.
    assert latency_gap_ms(results, "CC2") > 10
    assert latency_gap_ms(results, "CC3") > 2 * latency_gap_ms(results, "CC2")
