"""Tests for the open-loop runner: arrivals, admission control, accounting."""

import pytest

from repro.sim.rand import derive_rng
from repro.sim.scheduler import Scheduler
from repro.workloads.arrivals import PoissonArrivals, UniformArrivals
from repro.workloads.records import Dataset
from repro.workloads.runner import ClosedLoopRunner, OpenLoopRunner
from repro.workloads.ycsb import WORKLOAD_A, WORKLOAD_C, OperationGenerator


class _FixedLatencyIssue:
    """Completes every operation after a fixed simulated delay."""

    def __init__(self, scheduler, latency_ms=10.0):
        self.scheduler = scheduler
        self.latency_ms = latency_ms
        self.issued = 0
        self.in_flight = 0
        self.max_in_flight_seen = 0

    def __call__(self, op_type, key, value, sink, session_id=None):
        self.issued += 1
        self.in_flight += 1
        self.max_in_flight_seen = max(self.max_in_flight_seen, self.in_flight)
        sink.icg = True

        def _complete():
            self.in_flight -= 1
            sink.deliver_preliminary("v", None, self.latency_ms / 2)
            sink.deliver_final("v", None, self.latency_ms, False)

        self.scheduler.schedule(self.latency_ms, _complete)


def _make_runner(scheduler, issue, *, rate=200.0, sessions=10,
                 duration=2_000.0, warmup=400.0, cooldown=200.0,
                 max_in_flight=None, policy="queue", queue_limit=None,
                 arrivals=None, seed=42, faults=None):
    dataset = Dataset(record_count=20)
    if arrivals is None:
        arrivals = UniformArrivals(rate)
    return OpenLoopRunner(
        scheduler=scheduler, issue=issue,
        make_generator=lambda i: OperationGenerator.seeded(
            WORKLOAD_C, dataset, seed, f"open-{i}"),
        arrivals=arrivals, sessions=sessions,
        duration_ms=duration, warmup_ms=warmup, cooldown_ms=cooldown,
        label="open-test", max_in_flight=max_in_flight, policy=policy,
        queue_limit=queue_limit, faults=faults)


class TestOpenLoopBasics:
    def test_unbounded_throughput_tracks_offered_rate(self):
        scheduler = Scheduler()
        issue = _FixedLatencyIssue(scheduler, latency_ms=10.0)
        runner = _make_runner(scheduler, issue, rate=200.0)
        result = runner.run()
        # 200 ops/s offered, 10 ms service, no admission bound: everything
        # completes at its service latency.
        assert result.throughput_ops_per_sec() == pytest.approx(200, rel=0.05)
        assert result.offered_ops_per_sec() == pytest.approx(200, rel=0.05)
        assert result.final_latency.mean() == pytest.approx(10.0)
        assert result.admission.shed == 0
        assert result.admission.queue_delay.maximum() == 0.0

    def test_issue_rate_independent_of_service_time(self):
        # The defining open-loop property: slowing the store does not slow
        # the arrivals (a closed loop would issue fewer operations).
        totals = {}
        for latency in (5.0, 50.0):
            scheduler = Scheduler()
            issue = _FixedLatencyIssue(scheduler, latency_ms=latency)
            runner = _make_runner(scheduler, issue, rate=100.0)
            runner.run()
            totals[latency] = issue.issued
        assert totals[5.0] == totals[50.0]

    def test_arrivals_stop_at_end_time(self):
        scheduler = Scheduler()
        issue = _FixedLatencyIssue(scheduler)
        runner = _make_runner(scheduler, issue, rate=100.0, duration=1_000.0,
                              warmup=200.0, cooldown=100.0)
        runner.run()
        assert issue.issued <= 100  # 1 s at 100 ops/s
        assert scheduler.now() >= runner.end_time

    def test_warmup_and_cooldown_excluded(self):
        scheduler = Scheduler()
        issue = _FixedLatencyIssue(scheduler)
        runner = _make_runner(scheduler, issue)
        result = runner.run()
        assert 0 < result.measured_ops < result.total_ops
        assert result.admission.measured_offered < result.admission.offered

    def test_sessions_round_robin(self):
        scheduler = Scheduler()
        issue = _FixedLatencyIssue(scheduler)
        runner = _make_runner(scheduler, issue, sessions=4, rate=100.0)
        runner.run()
        counts = [s.generator.reads_generated for s in runner._sessions]
        assert max(counts) - min(counts) <= 1

    def test_validation(self):
        scheduler = Scheduler()
        issue = _FixedLatencyIssue(scheduler)
        with pytest.raises(ValueError):
            _make_runner(scheduler, issue, sessions=0)
        with pytest.raises(ValueError):
            _make_runner(scheduler, issue, policy="reject")
        with pytest.raises(ValueError):
            _make_runner(scheduler, issue, max_in_flight=0)
        with pytest.raises(ValueError):
            _make_runner(scheduler, issue, queue_limit=-1)


class TestAdmissionControl:
    def test_in_flight_never_exceeds_bound(self):
        scheduler = Scheduler()
        issue = _FixedLatencyIssue(scheduler, latency_ms=50.0)
        runner = _make_runner(scheduler, issue, rate=400.0, max_in_flight=4)
        result = runner.run()
        assert issue.max_in_flight_seen <= 4
        assert result.admission.in_flight_high_water <= 4

    def test_queue_policy_adds_queue_delay_to_latency(self):
        scheduler = Scheduler()
        issue = _FixedLatencyIssue(scheduler, latency_ms=50.0)
        # Offered 400 ops/s, capacity 4/50ms = 80 ops/s: heavy queueing.
        runner = _make_runner(scheduler, issue, rate=400.0, max_in_flight=4,
                              policy="queue", queue_limit=16)
        result = runner.run()
        admission = result.admission
        assert admission.queue_delay.mean() > 0
        assert admission.queue_high_water > 0
        assert admission.queue_high_water <= 16
        # Response time = service latency + queue delay, never less than
        # the pure service time.
        assert result.final_latency.minimum() >= 50.0
        assert result.final_latency.mean() > 50.0
        # The bounded queue overflows at this overload: the excess is shed.
        assert admission.shed > 0

    def test_shed_policy_drops_instead_of_queueing(self):
        scheduler = Scheduler()
        issue = _FixedLatencyIssue(scheduler, latency_ms=50.0)
        runner = _make_runner(scheduler, issue, rate=400.0, max_in_flight=4,
                              policy="shed")
        result = runner.run()
        admission = result.admission
        assert admission.shed > 0
        assert admission.queue_high_water == 0
        # Admitted operations never wait: latency stays at the service time.
        assert result.final_latency.mean() == pytest.approx(50.0)
        assert admission.queue_delay.maximum() == 0.0
        # Goodput saturates at capacity (80 ops/s) despite 400 offered.
        assert result.throughput_ops_per_sec() == pytest.approx(80, rel=0.1)

    def test_shed_percent_accounting(self):
        scheduler = Scheduler()
        issue = _FixedLatencyIssue(scheduler, latency_ms=50.0)
        runner = _make_runner(scheduler, issue, rate=400.0, max_in_flight=4,
                              policy="shed")
        result = runner.run()
        admission = result.admission
        assert admission.offered == admission.admitted + admission.shed
        assert 0.0 < admission.shed_percent() < 100.0
        summary = result.summary()
        assert summary["shed_pct"] == pytest.approx(admission.shed_percent())
        assert summary["offered_ops_s"] > summary["throughput_ops_s"]

    def test_queued_work_drains_after_end(self):
        scheduler = Scheduler()
        issue = _FixedLatencyIssue(scheduler, latency_ms=50.0)
        runner = _make_runner(scheduler, issue, rate=200.0, max_in_flight=2,
                              policy="queue", queue_limit=None)
        runner.run()
        # Every queued arrival is eventually issued (no bound on the queue,
        # and the drain slack lets the backlog empty).
        assert runner._waiting == type(runner._waiting)()
        assert issue.in_flight == 0


class TestFaultComposition:
    def test_fault_hook_armed_relative_to_start(self):
        armed = []

        class _Faults:
            def arm(self, offset_ms):
                armed.append(offset_ms)

        scheduler = Scheduler()
        scheduler.schedule(123.0, lambda: None)
        scheduler.run()
        issue = _FixedLatencyIssue(scheduler)
        runner = _make_runner(scheduler, issue, faults=_Faults())
        runner.run()
        assert armed == [123.0]


class TestDeterminism:
    def _result_fingerprint(self, *, policy="queue", seed=42):
        scheduler = Scheduler()
        issue = _FixedLatencyIssue(scheduler, latency_ms=25.0)
        dataset = Dataset(record_count=20)
        runner = OpenLoopRunner(
            scheduler=scheduler, issue=issue,
            make_generator=lambda i: OperationGenerator.seeded(
                WORKLOAD_A, dataset, seed, f"det-{i}"),
            arrivals=PoissonArrivals(300.0, derive_rng(seed, "det:arrivals")),
            sessions=8, duration_ms=2_000.0, warmup_ms=400.0,
            cooldown_ms=200.0, label="det", max_in_flight=4, policy=policy,
            queue_limit=8)
        result = runner.run()
        return (result.total_ops, result.measured_ops,
                result.admission.offered, result.admission.shed,
                result.final_latency.mean(),
                result.admission.queue_delay.mean())

    def test_same_seed_same_run(self):
        assert self._result_fingerprint() == self._result_fingerprint()

    def test_policies_share_the_arrival_trace(self):
        # Same seed, different policy: identical offered arrivals, only the
        # admission outcome differs.
        queue = self._result_fingerprint(policy="queue")
        shed = self._result_fingerprint(policy="shed")
        assert queue[2] == shed[2]

    def test_closed_loop_still_runs_on_shared_engine(self):
        # Regression guard for the LoadEngine refactor: the closed-loop
        # runner on the shared base matches its historical behaviour.
        scheduler = Scheduler()
        issue = _FixedLatencyIssue(scheduler, latency_ms=10.0)
        dataset = Dataset(record_count=10)
        runner = ClosedLoopRunner(
            scheduler=scheduler, issue=issue,
            make_generator=lambda i: OperationGenerator.seeded(
                WORKLOAD_C, dataset, 42, f"closed-{i}"),
            threads=2, duration_ms=1_000.0, warmup_ms=200.0,
            cooldown_ms=100.0, label="closed")
        result = runner.run()
        assert result.throughput_ops_per_sec() == pytest.approx(200, rel=0.1)
        assert result.admission is None
        assert "shed_pct" not in result.summary()


class TestIssueContract:
    def test_open_loop_passes_the_session_and_closed_loop_never_does(self):
        """``issue(op_type, key, value, sink, session_id=None)``: the open
        loop hands over the session it chose on every call, in its
        round-robin order; the closed loop passes the first four only."""
        def recording_issue(calls):
            def issue(op_type, key, value, sink, *session):
                calls.append(session)
                scheduler.schedule(5.0, sink.deliver_final, None, None, 5.0)
            return issue

        scheduler = Scheduler()
        open_calls = []
        _make_runner(scheduler, recording_issue(open_calls), sessions=4,
                     rate=100.0).run()
        assert len(open_calls) > 100
        assert open_calls == [(i % 4,) for i in range(len(open_calls))]

        scheduler = Scheduler()
        closed_calls = []
        dataset = Dataset(record_count=10)
        ClosedLoopRunner(
            scheduler=scheduler, issue=recording_issue(closed_calls),
            make_generator=lambda i: OperationGenerator.seeded(
                WORKLOAD_C, dataset, 42, f"closed-{i}"),
            threads=2, duration_ms=1_000.0, warmup_ms=200.0,
            cooldown_ms=100.0, label="closed").run()
        assert len(closed_calls) > 100
        assert set(closed_calls) == {()}
