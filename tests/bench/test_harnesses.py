"""Shape tests for the figure-regeneration harnesses (tiny scale).

The benchmark suite in ``benchmarks/`` runs these harnesses at the scale
recorded in EXPERIMENTS.md; the tests here run much smaller configurations
and assert the qualitative shapes the paper reports, so a regression in the
simulators or the harnesses is caught by ``pytest tests/``.
"""

import pytest

from repro.bench.common import (
    CASSANDRA_SYSTEMS,
    REMOTE_CONTACTS,
    DrainCheck,
    build_cassandra_scenario,
    cassandra_config_for,
    make_kv_issue,
)
from repro.bench.fig05_single_latency import format_fig05, latency_gap_ms, run_fig05
from repro.bench.fig09_zk_latency import format_fig09, run_fig09
from repro.bench.fig10_zk_bandwidth import format_fig10, run_fig10
from repro.bench.fig12_tickets import format_fig12, run_fig12
from repro.bench.ablations import (
    format_ticket_threshold_ablation,
    format_view_count_ablation,
    run_ticket_threshold_ablation,
    run_view_count_ablation,
)
from repro.sim.topology import Region


class TestCommon:
    def test_system_labels_cover_paper_notation(self):
        assert {"C1", "C2", "C3", "CC2", "CC3", "*CC2"} <= \
            set(CASSANDRA_SYSTEMS)

    def test_remote_contacts_never_local(self):
        for client_region, contact in REMOTE_CONTACTS.items():
            assert client_region != contact

    def test_scenario_preloads_dataset(self):
        scenario = build_cassandra_scenario(seed=1, record_count=10)
        replica = scenario.cluster.replica_in(Region.FRK)
        assert replica.table.read("user0") is not None

    def test_unknown_system_label_rejected(self):
        scenario = build_cassandra_scenario(seed=1, record_count=10)
        with pytest.raises(KeyError):
            make_kv_issue(scenario.client_in(Region.IRL), "C9")

    def test_confirmation_config_only_for_starred_system(self):
        assert cassandra_config_for("*CC2").confirmation_optimization
        assert not cassandra_config_for("CC2").confirmation_optimization


class _Sink:
    def deliver_preliminary(self, value, stamp, latency_ms, source=None):
        pass

    def deliver_final(self, value, stamp, latency_ms, is_confirmation=False,
                      degraded=False, matches_preliminary=None):
        pass

    def deliver_error(self, error, latency_ms):
        pass


class TestDrainCheck:
    def test_drained_run_passes(self):
        check = DrainCheck("drained")
        scenario = build_cassandra_scenario(seed=1, record_count=10)
        client = scenario.client_in(Region.IRL)
        client.lean_read("user1", 2, True, _Sink())
        client.lean_write("user2", "v", 1, _Sink())
        scenario.env.run_until_idle()
        check.verify(scenario.cluster)

    def test_stranded_operation_fails_the_point(self):
        """No client timeout and a crashed coordinator: the read can never
        complete, so its record stays out and its cluster has it in
        flight — both are reported."""
        check = DrainCheck("stranded")
        scenario = build_cassandra_scenario(seed=1, record_count=10)
        client = scenario.client_in(Region.IRL)
        scenario.cluster.replica_by_name(client.contact).crash()
        client.lean_read("user1", 2, True, _Sink())
        scenario.env.run_until_idle()
        with pytest.raises(RuntimeError) as failure:
            check.verify(scenario.cluster)
        message = str(failure.value)
        assert message.startswith("stranded did not drain: ")
        assert "1 request records not retired" in message
        assert "'client_pending': 1" in message


class TestEveryPointChecksItsDrain:
    """fig05, fig09, fig10 and fig12 points end with the drain check too,
    each on the cluster it built."""

    @pytest.mark.parametrize("figure", ["fig05", "fig09", "fig10", "fig12"])
    def test_point_verifies_its_cluster(self, figure, monkeypatch):
        from repro.bench import (fig05_single_latency, fig09_zk_latency,
                                 fig10_zk_bandwidth, fig12_tickets)

        checked = []
        monkeypatch.setattr(
            DrainCheck, "verify",
            lambda self, *clusters: checked.append(
                (self.label, [cluster.in_flight() for cluster in clusters])))
        run = {
            "fig05": lambda: fig05_single_latency._measure_single_requests(
                "CC2", samples=5, seed=1, record_count=10),
            "fig09": lambda: fig09_zk_latency.measure_enqueues(
                Region.IRL, Region.FRK, icg=True, samples=5, seed=1),
            "fig10": lambda: fig10_zk_bandwidth._drain_queue(
                "CZK", stock=10, clients=2, seed=1),
            "fig12": lambda: fig12_tickets._sell_out(
                "CZK", stock=30, retailers=2, threshold=5, seed=1),
        }[figure]
        run()
        ((label, (in_flight,)),) = checked
        assert label.startswith(figure)
        assert not any(in_flight.values())


class TestFig05Shape:
    @pytest.fixture(scope="class")
    def results(self):
        return run_fig05(samples=25, record_count=30, seed=7)

    def test_preliminary_tracks_c1(self, results):
        c1 = results["C1"]["final"]["mean_ms"]
        cc2_prelim = results["CC2"]["preliminary"]["mean_ms"]
        assert cc2_prelim == pytest.approx(c1, rel=0.25)

    def test_final_tracks_matching_quorum(self, results):
        assert results["CC2"]["final"]["mean_ms"] == pytest.approx(
            results["C2"]["final"]["mean_ms"], rel=0.25)
        assert results["CC3"]["final"]["mean_ms"] == pytest.approx(
            results["C3"]["final"]["mean_ms"], rel=0.25)

    def test_gap_grows_with_quorum_distance(self, results):
        assert latency_gap_ms(results, "CC3") > latency_gap_ms(results, "CC2") > 5

    def test_quorum_ordering(self, results):
        assert results["C1"]["final"]["mean_ms"] < \
            results["C2"]["final"]["mean_ms"] < \
            results["C3"]["final"]["mean_ms"]

    def test_report_renders(self, results):
        text = format_fig05(results)
        assert "CC2" in text and "preliminary" in text


class TestFig09Shape:
    @pytest.fixture(scope="class")
    def records(self):
        return run_fig09(samples=20, seed=7)

    def test_preliminary_tracks_connection_rtt(self, records):
        by_label = {r["configuration"]: r for r in records}
        assert by_label["leader-IRL / leader-IRL"]["czk_preliminary_ms"] < 6
        assert 15 < by_label["follower-FRK / leader-IRL"]["czk_preliminary_ms"] < 30
        assert by_label["leader-VRG / leader-VRG"]["czk_preliminary_ms"] > 70

    def test_final_matches_vanilla_zookeeper(self, records):
        for record in records:
            assert record["czk_final_ms"] == pytest.approx(
                record["zk_final_ms"], rel=0.2)

    def test_biggest_gap_is_nearby_follower_distant_leader(self, records):
        gaps = {r["configuration"]: r["latency_gap_ms"] for r in records}
        assert max(gaps, key=gaps.get) == "follower-IRL / leader-VRG"

    def test_enqueue_bandwidth_overhead_is_one_extra_response(self, records):
        for record in records:
            overhead = record["czk_bytes_per_op"] / record["zk_bytes_per_op"]
            assert 1.2 < overhead < 1.9

    def test_report_renders(self, records):
        assert "configuration" in format_fig09(records)


class TestFig10Shape:
    @pytest.fixture(scope="class")
    def records(self):
        return run_fig10(stocks=(60, 120), client_counts=(1, 3), seed=7)

    def test_zk_cost_grows_with_stock(self, records):
        zk = {(r["stock"], r["clients"]): r["kb_per_op"]
              for r in records if r["system"] == "ZK"}
        assert zk[(120, 1)] > zk[(60, 1)]

    def test_czk_cost_independent_of_stock(self, records):
        czk = {(r["stock"], r["clients"]): r["kb_per_op"]
               for r in records if r["system"] == "CZK"}
        assert czk[(120, 1)] == pytest.approx(czk[(60, 1)], rel=0.15)

    def test_czk_saves_substantially(self, records):
        for record in records:
            if record["system"] == "CZK":
                assert record["saving_vs_zk_pct"] > 40

    def test_every_ticket_dequeued_exactly_once(self, records):
        for record in records:
            assert record["dequeued"] == record["stock"]

    def test_report_renders(self, records):
        assert "kB/op" in format_fig10(records)


class TestFig12Shape:
    @pytest.fixture(scope="class")
    def results(self):
        return run_fig12(stock=80, retailers=4, threshold=20, seed=7)

    def test_no_overselling(self, results):
        for result in results.values():
            assert result["oversold"] == 0
            assert result["tickets_sold"] == result["stock"]

    def test_czk_fast_before_threshold_slow_after(self, results):
        czk = results["CZK"]
        assert czk["early_mean_ms"] < 10
        assert czk["last_mean_ms"] > 25

    def test_zk_always_pays_commit_latency(self, results):
        zk = results["ZK"]
        assert zk["early_mean_ms"] > 25
        assert zk["preliminary_purchases"] == 0

    def test_czk_uses_preliminary_for_most_tickets(self, results):
        czk = results["CZK"]
        assert czk["preliminary_purchases"] >= czk["stock"] - czk["threshold"] - 5

    def test_report_renders(self, results):
        assert "oversold" in format_fig12(results)


class TestAblations:
    def test_threshold_zero_is_fastest(self):
        records = run_ticket_threshold_ablation(thresholds=(0, 40), stock=60,
                                                retailers=3, seed=7)
        by_threshold = {r["threshold"]: r for r in records}
        assert by_threshold[0]["mean_latency_ms"] < \
            by_threshold[40]["mean_latency_ms"]
        assert "threshold" in format_ticket_threshold_ablation(records)

    def test_third_view_cuts_time_to_first_view(self):
        records = run_view_count_ablation(reads=5)
        by_config = {r["configuration"]: r for r in records}
        two = by_config["2 views (backup+primary)"]
        three = by_config["3 views (cache+backup+primary)"]
        assert three["mean_first_view_ms"] < two["mean_first_view_ms"]
        assert three["refreshes_per_read"] > two["refreshes_per_read"]
        assert "views per read" in format_view_count_ablation(records)
