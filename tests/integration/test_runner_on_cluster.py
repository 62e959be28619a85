"""Closed-loop YCSB load driven against the simulated Cassandra cluster.

These tests exercise the same path the Figure 6/7/8 harnesses use — the
workload generator, the closed-loop runner, and the `make_kv_issue`
adapters — and check the relationships the load model is supposed to
guarantee.
"""

import pytest

from repro.bench.common import (
    cassandra_config_for,
    make_generator_factory,
    make_kv_issue,
    run_multi_region_load,
)
from repro.core.cluster_spec import ClusterSpec
from repro.sim.topology import Region
from repro.workloads.runner import ClosedLoopRunner
from repro.workloads.ycsb import WORKLOAD_A, WORKLOAD_C, workload_by_name

_QUICK = dict(duration_ms=3_000.0, warmup_ms=800.0, cooldown_ms=400.0)


def _single_region_run(system, spec, threads, seed=3):
    scenario = ClusterSpec(
        seed=seed, record_count=100,
        client_regions=(Region.IRL,),
        config=cassandra_config_for(system)).build()
    client = scenario.client_in(Region.IRL)
    runner = ClosedLoopRunner(
        scheduler=scenario.env.scheduler,
        issue=make_kv_issue(client, system),
        make_generator=make_generator_factory(spec, scenario.dataset, seed,
                                              f"itest-{system}"),
        threads=threads, label=f"itest-{system}", **_QUICK)
    result = runner.run()
    return scenario, result


class TestRunnerOnCluster:
    def test_throughput_consistent_with_mean_latency(self):
        _, result = _single_region_run("C2", WORKLOAD_C, threads=2)
        expected = 2 * 1000.0 / result.final_latency.mean()
        assert result.throughput_ops_per_sec() == pytest.approx(expected,
                                                                rel=0.15)

    def test_icg_records_preliminary_latencies_for_reads_only(self):
        _, result = _single_region_run("CC2", WORKLOAD_A, threads=2)
        assert result.preliminary_latency.count == result.read_latency.count
        assert result.preliminary_latency.count < result.measured_ops
        assert result.preliminary_latency.mean() < result.read_latency.mean()

    def test_read_only_workload_on_single_client_never_diverges(self):
        # With no writers anywhere, preliminary and final views always agree.
        _, result = _single_region_run("CC2", WORKLOAD_C, threads=3)
        assert result.divergence.diverged == 0
        assert result.divergence.total > 0

    def test_multi_region_load_returns_result_per_region(self):
        scenario = ClusterSpec(
            seed=5, record_count=100,
            client_regions=(Region.IRL, Region.FRK, Region.VRG),
            config=cassandra_config_for("CC2")).build()
        results = run_multi_region_load(
            scenario, "CC2", workload_by_name("A"), threads_per_client=2,
            seed=5, **_QUICK)
        assert set(results) == {Region.IRL, Region.FRK, Region.VRG}
        for result in results.values():
            assert result.measured_ops > 0
            assert result.final_latency.mean() > 0

    def test_same_seed_reproduces_identical_metrics(self):
        _, first = _single_region_run("CC2", WORKLOAD_A, threads=2, seed=9)
        _, second = _single_region_run("CC2", WORKLOAD_A, threads=2, seed=9)
        assert first.measured_ops == second.measured_ops
        assert first.final_latency.mean() == pytest.approx(
            second.final_latency.mean())
        assert first.divergence.diverged == second.divergence.diverged
