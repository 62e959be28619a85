"""Figure 13 — Correctables under injected faults (crash, partition, flap, slow)."""

import pytest

from repro.bench.figures import FIG13


@pytest.mark.benchmark(group="fig13")
def test_fig13_faults(benchmark, save_report):
    records = benchmark.pedantic(FIG13.run, rounds=1, iterations=1)
    save_report("fig13_faults", FIG13.render(records))

    by_scenario = {r["scenario"]: r for r in records}
    assert set(by_scenario) == {"baseline", "replica-crash", "wan-partition",
                                "flapping-link", "slow-follower",
                                "leader-crash"}

    # The fault-free reference run never degrades or fails anything.
    baseline = by_scenario["baseline"]
    assert baseline["degraded_ops"] == 0
    assert baseline["failed_ops"] == 0
    assert baseline["measured_ops"] > 0

    # Reads keep completing while a replica is down: the coordinator routes
    # around the crash (retries and/or downgraded quorums), no operation is
    # lost, and the run still measures a substantial share of the baseline.
    crash = by_scenario["replica-crash"]
    assert crash["failed_ops"] == 0
    assert crash["coordinator_retries"] + crash["degraded_ops"] > 0
    assert crash["measured_ops"] > 0.3 * baseline["measured_ops"]

    # A WAN partition between two replica regions leaves a connected
    # majority: clients fail over and nothing is lost.
    partition = by_scenario["wan-partition"]
    assert partition["failed_ops"] == 0
    assert partition["client_retries"] + partition["coordinator_retries"] > 0
    assert partition["measured_ops"] > 0.3 * baseline["measured_ops"]

    for name in ("flapping-link", "slow-follower"):
        assert by_scenario[name]["failed_ops"] == 0
        assert by_scenario[name]["measured_ops"] > 0

    # Leader crash: the ensemble detects the failure, promotes a follower,
    # and the queue keeps serving (sessions fail over to the new leader).
    zk = by_scenario["leader-crash"]
    assert zk["leader_changed"]
    assert zk["new_leader"] is not None
    assert zk["promotions"] >= 1
    assert zk["measured_ops"] > 0
    # Client failover keeps the failure count a small fraction of the load.
    assert zk["failed_ops"] <= 0.02 * zk["measured_ops"]
    # The new leadership actually commits: a probe write issued after the
    # run completes, and the committed-transaction count covers the load
    # (guards against a post-election commit stall, which op counters alone
    # would miss because timed-out ops still complete at the client).
    assert zk["post_crash_commit_ok"]
    assert zk["committed_txns"] >= zk["measured_ops"]
    # No operation ran into the client's give-up latency (4 × 2000 ms).
    assert zk["final_p99_ms"] < 8_000.0
