"""Figure 14 — latency and staleness vs offered load through saturation."""

import pytest

from repro.bench.figures import FIG14


@pytest.mark.benchmark(group="fig14")
def test_fig14_open_loop(benchmark, save_report):
    records = benchmark.pedantic(FIG14.run, rounds=1, iterations=1)
    save_report("fig14_open_loop", FIG14.render(records))

    def rows(**labels):
        return [r for r in records
                if all(r[k] == v for k, v in labels.items())]

    bindings = {r["binding"] for r in records}
    assert bindings == {"cassandra", "primary-backup"}

    for binding in sorted(bindings):
        closed = rows(binding=binding, mode="closed")
        assert len(closed) == 1, "one closed-loop overlay row per binding"
        capacity = closed[0]["throughput_ops_s"]
        assert capacity > 0

        low_queue = rows(binding=binding, policy="queue",
                         offered_rate_ops_s=100)[0]
        top_queue = rows(binding=binding, policy="queue",
                         offered_rate_ops_s=800)[0]
        top_shed = rows(binding=binding, policy="shed",
                        offered_rate_ops_s=800)[0]

        # Below saturation the open loop matches the closed overlay: no
        # shedding, no queueing, same service latency.
        assert low_queue["shed_pct"] == 0.0
        assert low_queue["queue_delay_p99_ms"] < 5.0
        assert low_queue["final_mean_ms"] == \
            pytest.approx(closed[0]["final_mean_ms"], rel=0.15)

        # Offered load far past capacity: goodput plateaus at the capacity
        # the closed loop measured, under either policy.
        for top in (top_queue, top_shed):
            assert top["offered_ops_s"] > 2.0 * capacity
            assert top["throughput_ops_s"] == pytest.approx(capacity,
                                                            rel=0.25)

        # Queueing converts overload into waiting: queue delay dominates
        # the response time and the tail explodes past the closed loop's.
        assert top_queue["queue_delay_mean_ms"] > 50.0
        assert top_queue["final_p99_ms"] > 2.0 * closed[0]["final_p99_ms"]

        # Shedding converts overload into drops: a large shed fraction,
        # but the latency of admitted operations stays at the service time.
        assert top_shed["shed_pct"] > 30.0
        assert top_shed["queue_delay_p99_ms"] == 0.0
        assert top_shed["final_p99_ms"] < top_queue["final_p99_ms"]
        assert top_shed["final_p99_ms"] == \
            pytest.approx(closed[0]["final_p99_ms"], rel=0.25)

        # Preliminary views stay ahead of finals, and some of them are
        # stale — the staleness-under-load axis the figure exists for.
        assert top_shed["preliminary_mean_ms"] < top_shed["final_mean_ms"]
        assert top_shed["staleness_pct"] > 0.0

    # Nothing failed anywhere: admission control sheds, it never errors.
    assert all(r["failed_ops"] == 0 for r in records)
