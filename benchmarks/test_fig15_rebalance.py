"""Figure 15 — reads and write safety under live ring rebalancing."""

import pytest

from repro.bench.fig15_rebalance import PHASES
from repro.bench.figures import FIG15


@pytest.mark.benchmark(group="fig15")
def test_fig15_rebalance(benchmark, save_report):
    records = benchmark.pedantic(FIG15.run, rounds=1, iterations=1)
    save_report("fig15_rebalance", FIG15.render(records))

    assert len(records) == 2 * 3 * 2  # nodes x skew x event

    for record in records:
        cell = (record["nodes"], record["skew"], record["event"])
        # The safety criterion: every acknowledged write survived the
        # ownership change.
        assert record["acked_writes"] > 0, cell
        assert record["lost_acked_writes"] == 0, cell
        assert record["failed_ops"] == 0, cell
        # The rebalance actually happened under load, moving real data.
        assert record["ring_version"] == 1, cell
        assert record["rebalance_ms"] > 0, cell
        assert record["ranges_moved"] > 0, cell
        assert record["keys_streamed"] > 0, cell
        # Writes kept flowing during the change (bootstrap forwarding).
        assert record["writes_forwarded"] > 0, cell
        # Every phase saw traffic, and its latencies are sane.
        for phase in PHASES:
            assert record[f"{phase}_ops"] > 0, (cell, phase)
            assert record[f"{phase}_final_mean_ms"] > 0, (cell, phase)
            assert (record[f"{phase}_prelim_mean_ms"]
                    < record[f"{phase}_final_mean_ms"]), (cell, phase)

    # Skew dials staleness: hot-partition traffic (zipf-1.2) re-reads the
    # keys it just wrote far more often than uniform traffic does.
    def staleness(skew):
        rows = [r for r in records if r["skew"] == skew]
        return sum(r["after_staleness_pct"] for r in rows) / len(rows)

    assert staleness("zipf-1.2") > staleness("uniform")

    # More nodes -> each node owns a smaller share, so a single join
    # streams fewer keys.
    def streamed(nodes, event):
        return [r["keys_streamed"] for r in records
                if r["nodes"] == nodes and r["event"] == event]

    assert max(streamed(12, "join")) < min(streamed(6, "join"))


@pytest.mark.slow
def test_fig15_hundred_node_rebalance():
    """A 100-node ring join: the scale knob the vnode layout exists for.

    Excluded from tier-1 (slow marker); keeps the load light so the cell
    finishes in seconds while still exercising a big token layout.
    """
    (record,) = FIG15.run(
        nodes=(100,), skews=("uniform",), events=("join",),
        rate_ops_s=150.0, sessions=60, duration_ms=4_000.0,
        warmup_ms=600.0, cooldown_ms=300.0, event_at_ms=1_500.0,
        record_count=400)
    assert record["lost_acked_writes"] == 0
    assert record["failed_ops"] == 0
    assert record["ring_version"] == 1
    # On a 100-node ring a single joiner gains ~1% of the keyspace.
    assert 0 < record["keys_streamed"] < 400 * 3 * 0.1


@pytest.mark.slow
def test_fig15_million_key_rebalance():
    """A rebalance cell over a 1.2M-key hot-partition keyspace.

    The "millions of keys" scale knob from ROADMAP item 1, enabled by the
    vectorized key streams: key indices are drawn through the chunked
    Zipfian path and formatted on demand (the dataset's key cache opts out
    above 2^18 records), and ``preload=False`` keeps setup cost at the
    one-time O(n) zeta sum instead of an O(n) ring preload.  Excluded from
    tier-1 (slow marker) like the 100-node cell above.
    """
    (record,) = FIG15.run(
        nodes=(6,), skews=("zipf-1.2",), events=("join",),
        rate_ops_s=200.0, sessions=80, duration_ms=4_000.0,
        warmup_ms=600.0, cooldown_ms=300.0, event_at_ms=1_500.0,
        record_count=1_200_000, preload=False)
    assert record["lost_acked_writes"] == 0
    assert record["failed_ops"] == 0
    assert record["ring_version"] == 1
    assert record["measured_ops"] > 0
    # The skew concentrates traffic, so the touched key set the join has
    # to stream stays small even though the keyspace is seven figures.
    assert record["rebalance_ms"] > 0
