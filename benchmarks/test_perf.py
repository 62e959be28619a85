"""Perf harness smoke: the wall-clock scenarios run, count deterministically,
and the BENCH_perf.json trajectory machinery round-trips."""

import json
import os

import pytest

from repro.bench.perf import (
    append_entry,
    baseline_entry,
    check_regression,
    format_perf,
    gate_reference,
    latest_entry,
    load_trajectory,
    run_closed_loop_scenario,
    run_fault_scenario,
    run_million_key_scenario,
    run_perf,
    run_sweep_scenario,
    run_zk_queue_scenario,
    save_trajectory,
    scenario_names,
)

_TINY = dict(threads_per_client=2, duration_ms=2_500.0, warmup_ms=500.0,
             cooldown_ms=250.0, record_count=60)


@pytest.mark.benchmark(group="perf")
def test_perf_scenarios_run_and_count(benchmark):
    counts = benchmark.pedantic(run_closed_loop_scenario, kwargs=_TINY,
                                rounds=1, iterations=1)
    assert counts["events"] > 0 and counts["ops"] > 0


def test_scenarios_are_deterministic():
    first = run_closed_loop_scenario(**_TINY)
    second = run_closed_loop_scenario(**_TINY)
    assert first == second


def test_zk_and_fault_scenarios_count():
    zk = run_zk_queue_scenario(samples=40)
    assert zk["ops"] == 40 and zk["events"] > 0
    faults = run_fault_scenario(threads_per_client=1, duration_ms=3_000.0,
                                warmup_ms=500.0, cooldown_ms=250.0,
                                record_count=60)
    assert faults["ops"] > 0 and faults["events"] > 0


def test_million_key_scenario_reports_its_phases():
    """One rate per phase beside the whole-run rate (the wall is mostly
    dataset build + bulk preload, so the whole-run events/s says little),
    and timing the phases moves no event: the counts are deterministic."""
    kwargs = dict(record_count=100_000, rate_ops_s=200.0, sessions=20,
                  duration_ms=1_200.0, warmup_ms=200.0, cooldown_ms=100.0,
                  event_at_ms=300.0)
    stats = run_million_key_scenario(**kwargs)
    again = run_million_key_scenario(**kwargs)
    for count in ("events", "ops", "keys", "keys_streamed"):
        assert stats[count] == again[count], count
    assert stats["keys"] == 100_000 and stats["keys_streamed"] > 0
    walls = stats["phase_walls_s"]
    assert list(walls) == ["build", "preload", "serve", "stream", "audit"]
    assert all(wall >= 0 for wall in walls.values())
    assert 0 < walls["stream"] <= walls["serve"]
    assert stats["preload_keys_per_s"] == pytest.approx(
        100_000 / walls["preload"], rel=0.01)
    assert stats["stream_keys_per_s"] == pytest.approx(
        stats["keys_streamed"] / walls["stream"], rel=0.01)
    assert stats["serve_events_per_s"] == pytest.approx(
        stats["events"] / walls["serve"], rel=0.01)
    report = format_perf({"fig15-million-key": dict(
        stats, wall_s=1.0, events_per_s=1.0, ops_per_s=1.0)})
    assert "phases:" in report and "keys/s, stream" in report


def test_run_perf_unknown_scenario_rejected():
    with pytest.raises(KeyError):
        run_perf(scenarios=["nope"])


def test_run_perf_seed_changes_counts():
    default = run_perf(scenarios=["fig09-zk-queue"], quick=True, repeats=1)
    reseeded = run_perf(scenarios=["fig09-zk-queue"], quick=True, repeats=1,
                        seed=99)
    # Same ops (the workload is fixed-size) but a different event schedule.
    assert reseeded["fig09-zk-queue"]["ops"] == default["fig09-zk-queue"]["ops"]
    assert reseeded["fig09-zk-queue"]["events"] > 0


def test_run_perf_measures_named_scenarios():
    assert "fig06-closed-loop" in scenario_names()
    measured = run_perf(scenarios=["fig09-zk-queue"], quick=True, repeats=1)
    stats = measured["fig09-zk-queue"]
    assert stats["wall_s"] > 0
    assert stats["events_per_s"] > 0
    assert stats["ops_per_s"] * stats["wall_s"] == pytest.approx(
        stats["ops"], rel=0.05)


def test_trajectory_round_trip(tmp_path):
    path = tmp_path / "BENCH_perf.json"
    trajectory = load_trajectory(path)
    assert trajectory["entries"] == []
    measured = {"s": {"wall_s": 1.0, "runs_s": [1.0], "events": 10,
                      "ops": 5, "events_per_s": 10.0, "ops_per_s": 5.0}}
    append_entry(trajectory, "first", quick=True, measured=measured)
    save_trajectory(trajectory, path)
    loaded = load_trajectory(path)
    assert loaded["entries"][0]["label"] == "first"
    assert baseline_entry(loaded, quick=True)["label"] == "first"
    assert baseline_entry(loaded, quick=False) is None
    assert latest_entry(loaded, quick=True)["label"] == "first"
    assert json.loads(path.read_text())["schema"] == 1


def test_format_perf_reports_speedup():
    old = {"label": "old", "scenarios": {
        "s": {"wall_s": 2.0, "events": 1, "events_per_s": 1, "ops": 1,
              "ops_per_s": 1}}}
    new = {"s": {"wall_s": 1.0, "events": 1, "events_per_s": 1, "ops": 1,
                 "ops_per_s": 1}}
    report = format_perf(new, baseline=old)
    assert "2.00x" in report


def test_check_regression_gate():
    committed = {"scenarios": {"s": {"wall_s": 1.0, "events": 10}}}
    ok = {"s": {"wall_s": 1.5, "events": 10}}
    slow = {"s": {"wall_s": 2.5, "events": 10}}
    lines = []
    assert check_regression(ok, committed, echo=lines.append)
    assert not check_regression(slow, committed, echo=lines.append)
    assert any("REGRESSION" in line for line in lines)


def test_check_regression_fails_loudly_on_missing_reference():
    committed = {"scenarios": {"other": {"wall_s": 1.0, "events": 10}}}
    lines = []
    assert not check_regression({"s": {"wall_s": 0.1, "events": 10}},
                                committed, echo=lines.append)
    assert any("no committed reference" in line for line in lines)


def test_check_regression_fails_on_event_count_drift():
    committed = {"scenarios": {"s": {"wall_s": 1.0, "events": 10}}}
    lines = []
    assert not check_regression({"s": {"wall_s": 0.5, "events": 11}},
                                committed, echo=lines.append)
    assert any("event count" in line for line in lines)


_SWEEP_TINY = dict(systems=("C1", "CC2"), workloads=("A",),
                   thread_counts=(2,), duration_ms=2_500.0, warmup_ms=500.0,
                   cooldown_ms=250.0, record_count=60)


def _counts(stats):
    return {key: stats[key] for key in ("events", "ops", "points")}


def test_sweep_scenario_parallel_matches_serial_counts():
    serial = run_sweep_scenario(jobs=1, **_SWEEP_TINY)
    parallel = run_sweep_scenario(jobs=2, **_SWEEP_TINY)
    assert _counts(serial) == _counts(parallel)
    assert serial["points"] == 2
    assert len(parallel["point_walls_s"]) == 2


def test_run_perf_parallel_scenarios_match_serial():
    names = ["fig09-zk-queue", "fig06-sweep-serial"]
    serial = run_perf(scenarios=names, quick=True, repeats=1)
    parallel = run_perf(scenarios=names, quick=True, repeats=1, jobs=2)
    assert list(parallel) == names
    for name in names:
        assert parallel[name]["events"] == serial[name]["events"]
        assert parallel[name]["ops"] == serial[name]["ops"]


def _available_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.mark.slow
@pytest.mark.skipif(_available_cores() < 2,
                    reason="multi-core speedup needs >= 2 available cores")
def test_multicore_sweep_speedup():
    """On a multi-core host --jobs 2 must actually overlap point execution.

    Asserts the achieved concurrency (summed per-point wall over elapsed
    sweep wall) rather than the ratio of two separate end-to-end runs: a
    noisy neighbor slows the points and the sweep proportionally, so this
    ratio stays stable where a serial-vs-parallel comparison would flake.
    """
    parallel = run_sweep_scenario(
        jobs=2, systems=("C1", "C2", "CC2"), workloads=("A", "B"),
        thread_counts=(4,), duration_ms=6_000.0, warmup_ms=1_000.0,
        cooldown_ms=500.0, record_count=300)
    concurrency = sum(parallel["point_walls_s"]) / parallel["sweep_wall_s"]
    # 1.3 is deliberately below the ~1.7-2x expected on idle 2-core
    # hardware so CI runner contention does not flake the suite.
    assert concurrency > 1.3


def test_gate_reference_picks_best_entry_per_scenario():
    trajectory = {"entries": []}
    append_entry(trajectory, "fast", quick=True,
                 measured={"s": {"wall_s": 1.0, "events": 10}})
    append_entry(trajectory, "slow ci host", quick=True,
                 measured={"s": {"wall_s": 3.0, "events": 10}})
    ref = gate_reference(trajectory, quick=True,
                         measured={"s": {"wall_s": 0.9, "events": 10}})
    # A slow later entry must not loosen the gate: the best wall wins.
    assert ref["scenarios"]["s"]["wall_s"] == 1.0


def test_gate_reference_skips_stale_scales_and_other_jobs():
    trajectory = {"entries": []}
    append_entry(trajectory, "old scale", quick=True,
                 measured={"s": {"wall_s": 0.1, "events": 99}})
    append_entry(trajectory, "parallel run", quick=True,
                 measured={"s": {"wall_s": 0.2, "events": 10}}, jobs=2)
    append_entry(trajectory, "current", quick=True,
                 measured={"s": {"wall_s": 1.0, "events": 10}})
    ref = gate_reference(trajectory, quick=True,
                         measured={"s": {"wall_s": 0.9, "events": 10}})
    # The 0.1s entry counted 99 events (a different scenario scale) and the
    # 0.2s entry was measured with cross-scenario parallelism: neither is
    # comparable, so the gate reference stays at 1.0s.
    assert ref["scenarios"]["s"]["wall_s"] == 1.0
    assert gate_reference(trajectory, quick=False) is None


def test_gate_reference_survives_subset_and_seed_entries():
    trajectory = {"entries": []}
    append_entry(trajectory, "baseline", quick=True,
                 measured={"a": {"wall_s": 1.0, "events": 10},
                           "b": {"wall_s": 2.0, "events": 20}})
    # A later single-scenario save and a seed-overridden save (different
    # event count) must not poison the gate for the other scenarios.
    append_entry(trajectory, "subset", quick=True,
                 measured={"a": {"wall_s": 1.1, "events": 10}})
    append_entry(trajectory, "seeded", quick=True,
                 measured={"b": {"wall_s": 0.1, "events": 77}})
    measured = {"a": {"wall_s": 1.0, "events": 10},
                "b": {"wall_s": 2.0, "events": 20}}
    ref = gate_reference(trajectory, quick=True, measured=measured)
    assert ref["scenarios"]["a"]["wall_s"] == 1.0
    assert ref["scenarios"]["b"]["wall_s"] == 2.0
    lines = []
    assert check_regression(measured, ref, echo=lines.append)


def test_gate_reference_falls_back_to_newest_on_event_drift():
    trajectory = {"entries": []}
    append_entry(trajectory, "baseline", quick=True,
                 measured={"s": {"wall_s": 1.0, "events": 10}})
    measured = {"s": {"wall_s": 0.5, "events": 11}}
    ref = gate_reference(trajectory, quick=True, measured=measured)
    # No committed entry matches the measured event count: the newest stats
    # stand in so check_regression fails loudly on the drift rather than
    # reporting a missing reference.
    assert ref["scenarios"]["s"]["events"] == 10
    lines = []
    assert not check_regression(measured, ref, echo=lines.append)
    assert any("event count" in line for line in lines)


def test_append_entry_records_jobs():
    trajectory = {"entries": []}
    entry = append_entry(trajectory, "x", quick=True, measured={}, jobs=2)
    assert entry["jobs"] == 2
    assert append_entry(trajectory, "y", quick=True, measured={})["jobs"] == 1
