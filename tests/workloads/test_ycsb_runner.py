"""Tests for YCSB workload specs, datasets, and the closed-loop runner."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.scheduler import Scheduler
from repro.workloads.records import Dataset, make_value
from repro.workloads.runner import ClosedLoopRunner
from repro.workloads.ycsb import (
    WORKLOAD_A,
    WORKLOAD_B,
    WORKLOAD_C,
    OperationGenerator,
    WorkloadSpec,
    workload_by_name,
)


class TestDataset:
    def test_keys_and_values(self):
        dataset = Dataset(record_count=10, value_size_bytes=50)
        assert dataset.key(0) == "user0"
        assert len(dataset.keys()) == 10
        assert len(dataset.initial_value(3)) == 50

    def test_initial_values_deterministic(self):
        a = Dataset(record_count=5)
        b = Dataset(record_count=5)
        assert a.initial_items() == b.initial_items()

    def test_out_of_range_key_rejected(self):
        with pytest.raises(IndexError):
            Dataset(record_count=5).key(5)

    @pytest.mark.parametrize("index", [3, 7, -1])
    def test_out_of_range_initial_value_rejected(self, index):
        """Like ``key``: a record that does not exist has no value, however
        much of the initial-value stream has been generated already."""
        dataset = Dataset(record_count=3, value_size_bytes=4)
        dataset.initial_items()
        with pytest.raises(IndexError):
            dataset.initial_value(index)

    @pytest.mark.parametrize("size", [0, -1])
    def test_value_size_rejected_at_construction(self, size):
        with pytest.raises(ValueError):
            Dataset(record_count=5, value_size_bytes=size)

    @pytest.mark.parametrize("spec", [
        {"record_count": float("nan")}, {"value_size_bytes": float("nan")},
        {"record_count": 10.5}, {"value_size_bytes": 2.5},
        {"record_count": 10.0}, {"value_size_bytes": "100"}],
        ids=["nan-count", "nan-size", "fractional-count", "fractional-size",
             "float-count", "text-size"])
    def test_non_int_sizes_rejected_at_construction(self, spec):
        """A size that is not a positive int fails when the dataset is
        built, not at its first key or value."""
        with pytest.raises(ValueError, match="must be a positive int"):
            Dataset(**spec)

    @pytest.mark.parametrize("seed", [2.5, -1, True, "7"])
    def test_a_seed_that_is_not_a_non_negative_int_is_refused(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative"):
            Dataset(record_count=5, seed=seed)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            Dataset(record_count=0)
        for size in (0, float("nan"), 2.5):
            with pytest.raises(ValueError):
                make_value(random.Random(0), size)

    def test_custom_prefix(self):
        dataset = Dataset(record_count=3, key_prefix="profile:")
        assert dataset.key(2) == "profile:2"

    def test_make_value_size(self):
        assert len(make_value(random.Random(0), 100)) == 100


class TestWorkloadSpecs:
    def test_core_workload_mixes(self):
        assert WORKLOAD_A.read_proportion == 0.5
        assert WORKLOAD_B.read_proportion == 0.95
        assert WORKLOAD_C.read_proportion == 1.0

    def test_lookup_by_name(self):
        assert workload_by_name("a") is WORKLOAD_A
        assert workload_by_name("C") is WORKLOAD_C
        with pytest.raises(KeyError):
            workload_by_name("Z")

    def test_invalid_proportions_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec("bad", read_proportion=0.5, update_proportion=0.2)

    @pytest.mark.parametrize("theta", [0.0, 1.0, 2.0])
    def test_a_zipf_theta_the_generator_cannot_take_is_refused(self, theta):
        with pytest.raises(ValueError, match=r"^zipf_theta must be in \(0, 2\)"):
            WORKLOAD_A.with_skew(theta)

    def test_with_distribution_preserves_mix(self):
        spec = WORKLOAD_A.with_distribution("latest")
        assert spec.request_distribution == "latest"
        assert spec.read_proportion == WORKLOAD_A.read_proportion


class TestOperationGenerator:
    def test_read_only_workload_generates_only_reads(self):
        generator = OperationGenerator(WORKLOAD_C, Dataset(record_count=10),
                                       random.Random(1))
        ops = [generator.next_operation() for _ in range(100)]
        assert all(op[0] == "read" for op in ops)
        assert all(op[2] is None for op in ops)

    def test_mixed_workload_ratio_close_to_spec(self):
        generator = OperationGenerator(WORKLOAD_A, Dataset(record_count=100),
                                       random.Random(2))
        ops = [generator.next_operation() for _ in range(2000)]
        reads = sum(1 for op in ops if op[0] == "read")
        assert 0.45 < reads / 2000 < 0.55
        assert generator.reads_generated + generator.updates_generated == 2000

    def test_update_carries_value(self):
        generator = OperationGenerator(WORKLOAD_A, Dataset(record_count=10),
                                       random.Random(3))
        values = [op[2] for op in (generator.next_operation()
                                   for _ in range(50)) if op[0] == "update"]
        assert values and all(isinstance(v, str) and len(v) == 100
                              for v in values)

    @pytest.mark.parametrize("streams", [
        {}, {"key_rng": random.Random(1)}, {"mix_rng": random.Random(1)}])
    def test_a_generator_without_both_streams_is_refused(self, streams):
        with pytest.raises(ValueError, match="^pass either a shared rng"):
            OperationGenerator(WORKLOAD_A, Dataset(record_count=10), **streams)

    def test_a_prefill_after_draws_counts_only_the_ops_not_yet_drawn(self):
        generator, reference = (
            OperationGenerator.seeded(WORKLOAD_A, Dataset(50), 3, "prefill")
            for _ in range(2))
        assert generator.prefill(64) == 64
        drawn = [generator.next_operation() for _ in range(10)]
        assert generator.prefill(64) == 64
        drawn += [generator.next_operation() for _ in range(64)]
        assert drawn == [reference.next_operation() for _ in range(74)]

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20)
    def test_keys_belong_to_dataset(self, seed):
        dataset = Dataset(record_count=25)
        generator = OperationGenerator(WORKLOAD_B, dataset, random.Random(seed))
        keys = set(dataset.keys())
        for _ in range(50):
            _, key, _ = generator.next_operation()
            assert key in keys


def _icg_read(scheduler, sink, latency_ms, preliminary="v", final="v"):
    """Complete an ICG read into ``sink``: a preliminary view at half the
    latency, then the final view."""
    sink.icg = True
    scheduler.schedule(latency_ms / 2, sink.deliver_preliminary,
                       preliminary, None, latency_ms / 2)
    scheduler.schedule(latency_ms, sink.deliver_final, final, None,
                       latency_ms, False)


class _InstantIssue:
    """Completes every operation after a fixed simulated delay."""

    def __init__(self, scheduler, latency_ms=10.0):
        self.scheduler = scheduler
        self.latency_ms = latency_ms
        self.issued = 0

    def __call__(self, op_type, key, value, sink, session_id=None):
        self.issued += 1
        _icg_read(self.scheduler, sink, self.latency_ms)


class _RecordingIssue:
    """Records each thread's operations and completes each after 10 ms."""

    def __init__(self, scheduler):
        self.scheduler = scheduler
        self.ops = {}

    def __call__(self, op_type, key, value, sink, session_id=None):
        self.ops.setdefault(sink.thread_id, []).append((op_type, key, value))
        self.scheduler.schedule(10.0, sink.deliver_final, value, None, 10.0,
                                False)


class TestClosedLoopRunner:
    def _make_runner(self, scheduler, issue, threads=2, duration=1000.0,
                     warmup=200.0, cooldown=100.0, think=0.0):
        dataset = Dataset(record_count=10)
        return ClosedLoopRunner(
            scheduler=scheduler, issue=issue,
            make_generator=lambda i: OperationGenerator(
                WORKLOAD_C, dataset, random.Random(i)),
            threads=threads, duration_ms=duration, warmup_ms=warmup,
            cooldown_ms=cooldown, think_time_ms=think, label="test")

    def test_throughput_matches_closed_loop_arithmetic(self):
        scheduler = Scheduler()
        issue = _InstantIssue(scheduler, latency_ms=10.0)
        runner = self._make_runner(scheduler, issue, threads=2)
        result = runner.run()
        # 2 threads, 10 ms per op -> 200 ops/s; the measured window is 700 ms.
        assert result.throughput_ops_per_sec() == pytest.approx(200, rel=0.1)
        assert result.final_latency.mean() == pytest.approx(10.0)
        assert result.preliminary_latency.mean() == pytest.approx(5.0)

    def test_warmup_and_cooldown_excluded(self):
        scheduler = Scheduler()
        issue = _InstantIssue(scheduler)
        runner = self._make_runner(scheduler, issue)
        result = runner.run()
        assert result.measured_ops < result.total_ops

    def test_think_time_reduces_throughput(self):
        results = {}
        for think in (0.0, 40.0):
            scheduler = Scheduler()
            issue = _InstantIssue(scheduler)
            runner = self._make_runner(scheduler, issue, think=think)
            results[think] = runner.run().throughput_ops_per_sec()
        assert results[40.0] < results[0.0]

    def test_validation_errors(self):
        scheduler = Scheduler()
        issue = _InstantIssue(scheduler)
        with pytest.raises(ValueError):
            self._make_runner(scheduler, issue, threads=0)
        with pytest.raises(ValueError):
            self._make_runner(scheduler, issue, duration=100.0, warmup=80.0,
                              cooldown=30.0)

    def test_summary_fields(self):
        scheduler = Scheduler()
        runner = self._make_runner(scheduler, _InstantIssue(scheduler))
        result = runner.run()
        summary = result.summary()
        assert {"label", "throughput_ops_s", "final_mean_ms",
                "divergence_pct", "degraded_ops", "failed_ops"} <= set(summary)

    @pytest.mark.parametrize("distribution", [
        "uniform", "zipfian", "scrambled_zipfian", "latest"])
    @pytest.mark.parametrize("workload", [WORKLOAD_A, WORKLOAD_B, WORKLOAD_C],
                             ids=lambda spec: spec.name)
    def test_each_thread_issues_what_its_generator_draws(self, workload,
                                                         distribution):
        # A thread prefills its generator and draws through
        # ``next_operation``; a fresh generator drawing one op at a time
        # must give the same ops, values included (each thread's dataset
        # is its own, so its value stream is too).
        spec = workload.with_distribution(distribution)

        def make_generator(i):
            return OperationGenerator.seeded(
                spec, Dataset(record_count=50, seed=i), 7, f"thread-{i}")

        scheduler = Scheduler()
        issue = _RecordingIssue(scheduler)
        ClosedLoopRunner(scheduler=scheduler, issue=issue,
                         make_generator=make_generator, threads=2,
                         duration_ms=3_000.0, warmup_ms=100.0,
                         cooldown_ms=100.0, label="draws").run()
        assert sorted(issue.ops) == [0, 1]
        for thread_id, ops in issue.ops.items():
            assert len(ops) == 300  # past the 64 prefilled ops
            reference = make_generator(thread_id)
            assert ops == [reference.next_operation() for _ in ops]
