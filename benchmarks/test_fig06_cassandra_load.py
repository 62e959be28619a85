"""Figure 6 — Correctable Cassandra latency vs throughput under YCSB A/B/C."""

import pytest

from repro.bench.figures import FIG06


@pytest.mark.benchmark(group="fig06")
def test_fig06_latency_vs_throughput(benchmark, save_report):
    records = benchmark.pedantic(FIG06.run, rounds=1, iterations=1)
    save_report("fig06_cassandra_load", FIG06.render(records))

    for workload in ("A", "B", "C"):
        rows = [r for r in records if r["workload"] == workload]
        by_system_low_load = {r["system"]: r for r in rows
                              if r["threads_per_client"] == 2}
        # CC2's two views bracket the C1/C2 baselines.
        assert by_system_low_load["CC2"]["preliminary_mean_ms"] < \
            by_system_low_load["CC2"]["final_mean_ms"]
        assert by_system_low_load["C1"]["final_mean_ms"] < \
            by_system_low_load["C2"]["final_mean_ms"]
        # Throughput rises with offered load for every system.
        for system in ("C1", "C2", "CC2"):
            series = sorted((r for r in rows if r["system"] == system),
                            key=lambda r: r["threads_per_client"])
            assert series[0]["throughput_ops_s"] < series[-1]["throughput_ops_s"]
