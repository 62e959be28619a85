"""Figure 8 — client-replica bandwidth per operation (C1 vs CC2 vs *CC2)."""

import pytest

from repro.bench.figures import FIG08


@pytest.mark.benchmark(group="fig08")
def test_fig08_bandwidth_overhead(benchmark, save_report):
    records = benchmark.pedantic(FIG08.run, rounds=1, iterations=1)
    save_report("fig08_bandwidth", FIG08.render(records))

    for workload, distribution in (("A", "latest"), ("B", "latest")):
        rows = {r["system"]: r for r in records
                if r["workload"] == workload
                and r["distribution"] == distribution}
        # ICG costs bandwidth; the confirmation optimization recovers most of it.
        assert rows["C1"]["kb_per_op"] < rows["*CC2"]["kb_per_op"] < \
            rows["CC2"]["kb_per_op"]

    # The optimization helps more when divergence is low (workload B) than
    # when it is high (workload A-Latest), as in the paper's 15 % vs 27 %.
    def optimized_overhead(workload):
        rows = {r["system"]: r for r in records
                if r["workload"] == workload and r["distribution"] == "latest"}
        return rows["*CC2"]["overhead_vs_c1_pct"]

    assert optimized_overhead("B") <= optimized_overhead("A") + 1.0
