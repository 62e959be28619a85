"""Ablation benchmarks for the design choices called out in DESIGN.md."""

import pytest

from repro.bench.figures import CONFIRMATION, TICKET_THRESHOLD, VIEW_COUNT


@pytest.mark.benchmark(group="ablations")
def test_ablation_ticket_threshold(benchmark, save_report):
    records = benchmark.pedantic(TICKET_THRESHOLD.run, rounds=1, iterations=1)
    save_report("ablation_ticket_threshold", TICKET_THRESHOLD.render(records))
    by_threshold = {r["threshold"]: r for r in records}
    # A higher threshold means more purchases wait for the atomic view, so
    # mean latency rises monotonically with the threshold.
    latencies = [by_threshold[t]["mean_latency_ms"] for t in (0, 5, 20, 60)]
    assert latencies == sorted(latencies)
    # The stock is never oversold at any threshold in these runs.
    for record in records:
        assert record["oversold"] == 0


@pytest.mark.benchmark(group="ablations")
def test_ablation_view_count(benchmark, save_report):
    records = benchmark.pedantic(VIEW_COUNT.run, rounds=1, iterations=1)
    save_report("ablation_view_count", VIEW_COUNT.render(records))
    by_config = {r["configuration"]: r for r in records}
    two = by_config["2 views (backup+primary)"]
    three = by_config["3 views (cache+backup+primary)"]
    # The cached third view slashes time-to-first-content at the cost of one
    # more refresh per read (the interactivity/throughput trade-off of §4.5).
    assert three["mean_first_view_ms"] < two["mean_first_view_ms"] / 4
    assert three["refreshes_per_read"] > two["refreshes_per_read"]


@pytest.mark.benchmark(group="ablations")
def test_ablation_confirmation_optimization(benchmark, save_report):
    records = benchmark.pedantic(CONFIRMATION.run, rounds=1, iterations=1)
    save_report("ablation_confirmation_optimization",
                CONFIRMATION.render(records))
    by_system = {r["system"]: r for r in records}
    assert by_system["*CC2"]["kb_per_op"] < by_system["CC2"]["kb_per_op"]
