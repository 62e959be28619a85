"""Figure 9 — ZooKeeper enqueue latency gaps and §6.2.2 enqueue bandwidth."""

import pytest

from repro.bench.figures import FIG09


@pytest.mark.benchmark(group="fig09")
def test_fig09_zookeeper_latency_gaps(benchmark, save_report):
    records = benchmark.pedantic(FIG09.run, rounds=1, iterations=1)
    save_report("fig09_zookeeper_latency", FIG09.render(records))
    by_label = {r["configuration"]: r for r in records}

    # Preliminary latency equals the RTT to the connected server.
    assert by_label["leader-IRL / leader-IRL"]["czk_preliminary_ms"] < 6
    assert 15 < by_label["follower-FRK / leader-IRL"]["czk_preliminary_ms"] < 30
    assert by_label["leader-VRG / leader-VRG"]["czk_preliminary_ms"] > 70
    # The final view costs what vanilla ZooKeeper costs.
    for record in records:
        assert record["czk_final_ms"] == pytest.approx(record["zk_final_ms"],
                                                       rel=0.2)
    # The headline configuration: nearby follower, distant leader.
    gaps = {r["configuration"]: r["latency_gap_ms"] for r in records}
    assert max(gaps, key=gaps.get) == "follower-IRL / leader-VRG"
    assert gaps["follower-IRL / leader-VRG"] > 100
    # §6.2.2: one extra (preliminary) response ≈ +50 % enqueue bandwidth.
    for record in records:
        overhead = record["czk_bytes_per_op"] / record["zk_bytes_per_op"] - 1.0
        assert 0.2 < overhead < 0.9
