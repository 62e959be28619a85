"""Shape tests for the figure-regeneration harnesses (tiny scale).

The benchmark suite in ``benchmarks/`` runs these harnesses at the scale
recorded in EXPERIMENTS.md; the tests here run much smaller configurations
and assert the qualitative shapes the paper reports, so a regression in the
simulators or the harnesses is caught by ``pytest tests/``.
"""

import pytest

from repro.bench.common import (
    CASSANDRA_SYSTEMS,
    DrainCheck,
    cassandra_config_for,
    make_generator_factory,
    make_kv_issue,
    run_until_settled,
)
from repro.bench.fig05_single_latency import latency_gap_ms
from repro.bench.figures import (
    FIG05, FIG09, FIG10, FIG12, TICKET_THRESHOLD, VIEW_COUNT,
)
from repro.core.cluster_spec import REMOTE_CONTACTS, ClusterSpec
from repro.sim.topology import Region
from repro.workloads.runner import ClosedLoopRunner
from repro.workloads.ycsb import workload_by_name


class TestCommon:
    def test_system_labels_cover_paper_notation(self):
        assert {"C1", "C2", "C3", "CC2", "CC3", "*CC2"} <= \
            set(CASSANDRA_SYSTEMS)

    def test_remote_contacts_never_local(self):
        for client_region, contact in REMOTE_CONTACTS.items():
            assert client_region != contact

    def test_scenario_preloads_dataset(self):
        scenario = ClusterSpec(seed=1, record_count=10).build()
        replica = scenario.cluster.replica_in(Region.FRK)
        assert replica.table.get("user0") is not None

    def test_unknown_system_label_rejected(self):
        scenario = ClusterSpec(seed=1, record_count=10).build()
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


class _ReadFinals:
    """Forwards one operation into the runner's record, logging a read's
    final as ``(issued at, key, value, is_confirmation)``."""

    def __init__(self, record, key, issued_at, log):
        self.record, self.key, self.issued_at, self.log = \
            record, key, issued_at, log

    @property
    def icg(self):
        return self.record.icg

    @icg.setter
    def icg(self, icg):
        self.record.icg = icg

    def deliver_preliminary(self, value, stamp, latency_ms, source=None):
        self.record.deliver_preliminary(value, stamp, latency_ms, source)

    def deliver_final(self, value, stamp, latency_ms, is_confirmation=False,
                      degraded=False, matches_preliminary=None):
        self.log.append((self.issued_at, self.key, value, is_confirmation))
        self.record.deliver_final(value, stamp, latency_ms, is_confirmation,
                                  degraded, matches_preliminary)

    def deliver_error(self, error, latency_ms):
        self.record.deliver_error(error, latency_ms)


class TestConfirmation:
    def test_a_confirmation_that_overtakes_its_preliminary_has_the_value(
            self):
        """fig08's ``*CC2`` A-latest cell, 300 ms of it: per-hop jitter
        lets one read's confirmation overtake its preliminary on the
        coordinator -> client link.  Every key is preloaded, so no read
        may complete with ``None`` — the confirmed value is the answering
        attempt's newest version, not a preliminary the client never saw."""
        system, seed = "*CC2", 42
        spec = workload_by_name("A").with_distribution("latest")
        scenario = ClusterSpec(
            seed=seed, record_count=1_000,
            client_regions=(Region.IRL, Region.FRK, Region.VRG),
            config=cassandra_config_for(system)).build()
        env = scenario.env
        finals = []
        ops = []

        def forwarding(client):
            issue = make_kv_issue(client, system)

            def _issue(op_type, key, value, sink, session_id=None):
                ops.append(op_type)
                if op_type != "update":
                    sink = _ReadFinals(sink, key, (env.now(), client.name),
                                       finals)
                issue(op_type, key, value, sink, session_id)
            return _issue

        runners = [
            ClosedLoopRunner(
                scheduler=env.scheduler, issue=forwarding(client),
                make_generator=make_generator_factory(
                    spec, scenario.dataset, seed,
                    f"fig08-{system}-A-latest-{region}"),
                threads=40, duration_ms=300.0, warmup_ms=0.0,
                cooldown_ms=0.0, label=f"fig08-{system}-{region}")
            for region, client in scenario.clients.items()]
        run_until_settled(env, runners, 60_000.0)

        assert len(ops) == 330
        assert len(finals) == ops.count("read") > 0
        assert [final for final in finals if final[2] is None] == []
        # The read that used to complete with None: its confirmation
        # arrived before its preliminary.
        ((issued_at, _), key, value, is_confirmation), = [
            final for final in finals
            if final[0] == (0.1, "ycsb-client-us-east-1")
            and final[1] == "user999"]
        assert is_confirmation and value.startswith("GmKIjku2")


class TestDrainCheck:
    def test_drained_run_passes(self):
        check = DrainCheck("drained")
        scenario = ClusterSpec(seed=1, record_count=10).build()
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
        scenario = ClusterSpec(seed=1, record_count=10).build()
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
        return FIG05.run(samples=25, record_count=30, seed=7)

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
        text = FIG05.render(results)
        assert "CC2" in text and "preliminary" in text


class TestFig09Shape:
    @pytest.fixture(scope="class")
    def records(self):
        return FIG09.run(samples=20, seed=7)

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
        assert "configuration" in FIG09.render(records)


class TestFig10Shape:
    @pytest.fixture(scope="class")
    def records(self):
        return FIG10.run(stocks=(60, 120), client_counts=(1, 3), seed=7)

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
        assert "kB/op" in FIG10.render(records)


class TestFig12Shape:
    @pytest.fixture(scope="class")
    def results(self):
        return FIG12.run(stock=80, retailers=4, threshold=20, seed=7)

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
        assert "oversold" in FIG12.render(results)


class TestAblations:
    def test_threshold_zero_is_fastest(self):
        records = TICKET_THRESHOLD.run(thresholds=(0, 40), stock=60,
                                       retailers=3, seed=7)
        by_threshold = {r["threshold"]: r for r in records}
        assert by_threshold[0]["mean_latency_ms"] < \
            by_threshold[40]["mean_latency_ms"]
        assert "threshold" in TICKET_THRESHOLD.render(records)

    def test_third_view_cuts_time_to_first_view(self):
        records = VIEW_COUNT.run(reads=5)
        by_config = {r["configuration"]: r for r in records}
        two = by_config["2 views (backup+primary)"]
        three = by_config["3 views (cache+backup+primary)"]
        assert three["mean_first_view_ms"] < two["mean_first_view_ms"]
        assert three["refreshes_per_read"] > two["refreshes_per_read"]
        assert "views per read" in VIEW_COUNT.render(records)
