"""Figure 7 — divergence of preliminary from final views on a hot 1 K dataset."""

import pytest

from repro.bench.figures import FIG07


@pytest.mark.benchmark(group="fig07")
def test_fig07_divergence(benchmark, save_report):
    records = benchmark.pedantic(FIG07.run, rounds=1, iterations=1)
    save_report("fig07_divergence", FIG07.render(records))

    def max_divergence(workload, distribution):
        return max(r["divergence_pct"] for r in records
                   if r["workload"] == workload
                   and r["distribution"] == distribution)

    # Workload A diverges more than workload B under the same distribution,
    # and A-Latest is the worst case (the paper's ~25 % point).
    assert max_divergence("A", "latest") > max_divergence("B", "latest")
    assert max_divergence("A", "zipfian") > max_divergence("B", "zipfian")
    # The paper reports up to ~25 % for A-Latest on the hot 1 K dataset.
    assert max_divergence("A", "latest") > 10.0
    # Divergence grows (or at least does not shrink) with load for A-Latest.
    a_latest = sorted((r for r in records if r["workload"] == "A"
                       and r["distribution"] == "latest"),
                      key=lambda r: r["threads_total"])
    assert a_latest[-1]["divergence_pct"] >= a_latest[0]["divergence_pct"] * 0.8
