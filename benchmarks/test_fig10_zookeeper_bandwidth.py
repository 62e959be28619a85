"""Figure 10 — dequeue bandwidth per operation: ZK recipe vs Correctable ZooKeeper."""

import pytest

from repro.bench.figures import FIG10


@pytest.mark.benchmark(group="fig10")
def test_fig10_dequeue_bandwidth(benchmark, save_report):
    records = benchmark.pedantic(FIG10.run, rounds=1, iterations=1)
    save_report("fig10_zookeeper_bandwidth", FIG10.render(records))

    zk = {(r["stock"], r["clients"]): r for r in records if r["system"] == "ZK"}
    czk = {(r["stock"], r["clients"]): r for r in records if r["system"] == "CZK"}

    # ZK cost grows with queue size and with contention; CZK stays flat.
    assert zk[(1000, 1)]["kb_per_op"] > zk[(500, 1)]["kb_per_op"] * 1.5
    assert zk[(500, 12)]["kb_per_op"] > zk[(500, 1)]["kb_per_op"]
    assert czk[(1000, 1)]["kb_per_op"] == pytest.approx(
        czk[(500, 1)]["kb_per_op"], rel=0.1)
    # CZK saves at least the 44–81 % range the paper reports.
    for record in records:
        if record["system"] == "CZK":
            assert record["saving_vs_zk_pct"] > 40
    # Contention causes retries only in the ZK recipe.
    assert zk[(500, 12)]["retries"] > 0
    assert all(r["retries"] == 0 for r in records if r["system"] == "CZK")
    # Every ticket is dequeued exactly once in both systems.
    for record in records:
        assert record["dequeued"] == record["stock"]
