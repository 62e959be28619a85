"""Figure 12 — ticket-purchase latency: Correctable ZooKeeper vs ZooKeeper."""

import pytest

from repro.bench.figures import FIG12


@pytest.mark.benchmark(group="fig12")
def test_fig12_ticket_selling(benchmark, save_report):
    results = benchmark.pedantic(FIG12.run, rounds=1, iterations=1)
    save_report("fig12_ticket_selling", FIG12.render(results))

    czk, zk = results["CZK"], results["ZK"]
    # Nothing is oversold and the whole stock sells in both systems.
    for result in results.values():
        assert result["oversold"] == 0
        assert result["tickets_sold"] == result["stock"]
    # CZK: cheap purchases from the preliminary view until the last
    # `threshold` tickets, then the full atomic latency.
    assert czk["early_mean_ms"] < 10
    assert czk["last_mean_ms"] > 25
    assert czk["preliminary_purchases"] >= czk["stock"] - czk["threshold"] - 10
    # ZK pays the commit latency for every ticket.
    assert zk["early_mean_ms"] > 25
    assert zk["preliminary_purchases"] == 0
    # CZK is at least ~5x faster on the non-contended part of the sale.
    assert zk["early_mean_ms"] / czk["early_mean_ms"] > 5
