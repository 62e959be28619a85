"""Tests for the declarative fault scripts (events, schedules, scenarios)."""

import pytest

from repro.faults import FaultEvent, FaultSchedule, FaultScheduleBuilder, Scenario
from repro.faults.scenarios import get_scenario, scenario_names


class TestFaultEvent:
    def test_rejects_unknown_action(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, "explode", "replica:0")

    def test_rejects_missing_target(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, "crash", "")

    def test_pair_actions_need_a_peer(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, "partition", "region:a")

    def test_slow_needs_positive_factor(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, "slow", "replica:0", value=0.0)


@pytest.mark.parametrize("window", [
    lambda b, nan: b.crash_window("replica:0", nan, 10.0),
    lambda b, nan: b.crash_window("replica:0", 0.0, nan),
    lambda b, nan: b.partition_window("region:a", "region:b", nan, 10.0),
    lambda b, nan: b.flapping("region:a", "region:b", 0.0, nan, nan, 2),
    lambda b, nan: b.degrade_window("region:a", "region:b", 0.0, 10.0, nan),
    lambda b, nan: b.slow_window("replica:0", 0.0, 10.0, nan),
], ids=["crash_at", "crash_duration", "partition", "flapping", "degrade",
        "slow"])
def test_builder_windows_reject_nan(window):
    with pytest.raises(ValueError):
        window(FaultScheduleBuilder(), float("nan"))


class TestFaultSchedule:
    def test_events_sorted_by_time(self):
        schedule = FaultSchedule((
            FaultEvent(500.0, "recover", "n"),
            FaultEvent(100.0, "crash", "n"),
        ))
        assert [e.action for e in schedule] == ["crash", "recover"]
        assert schedule.duration_ms() == 500.0

    def test_shifted_moves_every_event(self):
        schedule = FaultSchedule((FaultEvent(100.0, "crash", "n"),))
        shifted = schedule.shifted(50.0)
        assert [e.at_ms for e in shifted] == [150.0]
        # The original is unchanged (immutability).
        assert [e.at_ms for e in schedule] == [100.0]

    def test_merged_combines_and_reorders(self):
        first = FaultSchedule((FaultEvent(300.0, "recover", "n"),))
        second = FaultSchedule((FaultEvent(100.0, "crash", "n"),))
        merged = first.merged(second)
        assert [e.at_ms for e in merged] == [100.0, 300.0]

    def test_builder_windows(self):
        schedule = (FaultScheduleBuilder()
                    .crash_window("n", at_ms=1_000.0, duration_ms=2_000.0)
                    .partition_window("region:a", "region:b", 500.0, 1_000.0)
                    .slow_window("m", 0.0, 100.0, factor=5.0)
                    .build())
        actions = [(e.at_ms, e.action) for e in schedule]
        assert actions == [
            (0.0, "slow"), (100.0, "restore_speed"),
            (500.0, "partition"), (1_000.0, "crash"),
            (1_500.0, "heal"), (3_000.0, "recover"),
        ]
        assert len(schedule) == 6

    def test_builder_flapping_produces_cycles(self):
        schedule = (FaultScheduleBuilder()
                    .flapping("region:a", "region:b", at_ms=0.0,
                              up_ms=200.0, down_ms=100.0, cycles=3)
                    .build())
        partitions = [e for e in schedule if e.action == "partition"]
        heals = [e for e in schedule if e.action == "heal"]
        assert len(partitions) == 3 and len(heals) == 3
        assert [e.at_ms for e in partitions] == [0.0, 300.0, 600.0]
        assert [e.at_ms for e in heals] == [100.0, 400.0, 700.0]


class TestScenarioLibrary:
    def test_registry_contains_the_documented_scenarios(self):
        names = scenario_names()
        for expected in ("replica-crash", "wan-partition", "flapping-link",
                         "slow-follower", "leader-crash",
                         "coordinator-crash-mid-commit",
                         "participant-crash-after-prepare"):
            assert expected in names

    def test_get_scenario_builds_with_overrides(self):
        scenario = get_scenario("replica-crash", at_ms=10.0, duration_ms=20.0)
        assert isinstance(scenario, Scenario)
        assert [e.at_ms for e in scenario.schedule] == [10.0, 30.0]
        assert [e.action for e in scenario.schedule] == ["crash", "recover"]

    def test_get_scenario_unknown_name(self):
        with pytest.raises(KeyError):
            get_scenario("meteor-strike")

    def test_coordinator_crash_mid_commit_is_a_crash_window(self):
        scenario = get_scenario("coordinator-crash-mid-commit",
                                at_ms=100.0, duration_ms=400.0)
        assert [(e.at_ms, e.action, e.target) for e in scenario.schedule] == [
            (100.0, "crash", "txn-coordinator:0"),
            (500.0, "recover", "txn-coordinator:0"),
        ]

    def test_participant_crash_after_prepare_targets_a_participant(self):
        scenario = get_scenario("participant-crash-after-prepare")
        assert [e.action for e in scenario.schedule] == ["crash", "recover"]
        assert all(e.target == "txn-participant:0"
                   for e in scenario.schedule)
        override = get_scenario("participant-crash-after-prepare",
                                target="txn-participant:2")
        assert all(e.target == "txn-participant:2"
                   for e in override.schedule)

    def test_every_scenario_builds_with_defaults(self):
        for name in scenario_names():
            scenario = get_scenario(name)
            assert len(scenario.schedule) > 0
            assert scenario.description
