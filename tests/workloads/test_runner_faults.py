"""Tests for fault integration in the workload runners."""

from dataclasses import replace

import pytest

from repro.bench.common import (cassandra_config_for, make_generator_factory,
                                make_kv_issue)
from repro.core.cluster_spec import ClusterSpec
from repro.faults import FaultEvent, FaultInjector, FaultSchedule
from repro.sim.environment import SimEnvironment
from repro.sim.node import Node
from repro.sim.topology import Region, Topology
from repro.workloads.arrivals import UniformArrivals
from repro.workloads.records import Dataset
from repro.workloads.runner import ClosedLoopRunner, OpenLoopRunner
from repro.workloads.ycsb import (WORKLOAD_C, OperationGenerator,
                                  workload_by_name)
from repro.sim.rand import derive_rng


def _make_runner(env, issue, faults=None, threads=2, duration_ms=2_000.0):
    spec = workload_by_name("A")
    dataset = Dataset(record_count=20, value_size_bytes=10, seed=1)

    def make_generator(thread_id):
        return OperationGenerator(spec, dataset,
                                  derive_rng(1, f"t{thread_id}"))

    return ClosedLoopRunner(
        scheduler=env.scheduler, issue=issue, make_generator=make_generator,
        threads=threads, duration_ms=duration_ms, warmup_ms=200.0,
        cooldown_ms=200.0, label="fault-run", faults=faults)


class TestRunnerFaultArming:
    def test_fault_schedule_armed_relative_to_run_start(self):
        env = SimEnvironment(seed=2, topology=Topology(jitter_fraction=0.0))
        node = Node("target", Region.IRL, env.network)
        env.run(until=500.0)  # the run starts at t=500, not t=0

        injector = FaultInjector(env, schedule=FaultSchedule((
            FaultEvent(1_000.0, "crash", "target"),
        )))

        def issue(op_type, key, value, sink):
            env.scheduler.schedule(10.0, sink.deliver_final, None, None, 10.0)

        runner = _make_runner(env, issue, faults=injector)
        runner.run()
        assert not node.alive
        # The crash fired at start_time + 1000 ms, not at absolute 1000 ms.
        assert injector.log[0].time_ms == 1_500.0

    def test_runner_counts_degraded_and_failed_ops(self):
        env = SimEnvironment(seed=2)

        calls = {"n": 0}

        def issue(op_type, key, value, sink):
            calls["n"] += 1
            if calls["n"] % 3 == 0:
                env.scheduler.schedule(50.0, sink.deliver_final, None,
                                       None, 50.0, False, True)
            elif calls["n"] % 5 == 0:
                env.scheduler.schedule(50.0, sink.deliver_error,
                                       "timeout", 50.0)
            else:
                env.scheduler.schedule(50.0, sink.deliver_final, None,
                                       None, 50.0)

        runner = _make_runner(env, issue)
        result = runner.run()
        assert result.degraded_ops > 0
        assert result.failed_ops > 0
        summary = result.summary()
        assert summary["degraded_ops"] == result.degraded_ops
        assert summary["failed_ops"] == result.failed_ops

    def test_runner_without_faults_behaves_as_before(self):
        env = SimEnvironment(seed=2)

        def issue(op_type, key, value, sink):
            env.scheduler.schedule(5.0, sink.deliver_final, None, None, 5.0)

        runner = _make_runner(env, issue)
        result = runner.run()
        assert result.measured_ops > 0
        assert result.degraded_ops == 0
        assert result.failed_ops == 0


class TestFailedIcgRead:
    """A failed ICG read counts as a failure and a response time only, in
    either loop shape: its preliminary arrived, but there is no final view
    to compare it with, so no divergence pair and no preliminary latency."""

    TIMEOUT_MS = 500.0

    def _runner(self, shape: str):
        """One client whose coordinator answers the preliminary (R=1) but
        can never assemble the final quorum (the other replicas are down
        and it never times out); the client gives up after one timeout."""
        config = replace(cassandra_config_for("CC2"),
                         client_timeout_ms=self.TIMEOUT_MS, client_retries=0)
        built = ClusterSpec(seed=3, record_count=20,
                            client_regions=(Region.IRL,),
                            config=config).build()
        client = built.client_in(Region.IRL)
        for replica in built.cluster.replicas:
            if replica.name != client.contact:
                replica.crash()
        make_generator = make_generator_factory(WORKLOAD_C, built.dataset, 3,
                                                "failed-icg")
        if shape == "closed":
            # The one thread issues at the start of the run.
            runner = ClosedLoopRunner(
                scheduler=built.env.scheduler,
                issue=make_kv_issue(client, "CC2"),
                make_generator=make_generator, threads=1,
                duration_ms=2_000.0, warmup_ms=0.0, cooldown_ms=100.0)
            issued_after_ms = 0.0
        else:
            # One arrival, one second into the run.
            runner = OpenLoopRunner(
                scheduler=built.env.scheduler,
                issue=make_kv_issue(client, "CC2"),
                make_generator=make_generator,
                arrivals=UniformArrivals(1.0), sessions=1,
                duration_ms=1_600.0, warmup_ms=0.0, cooldown_ms=50.0)
            issued_after_ms = 1_000.0
        coordinator = built.cluster.replica_by_name(client.contact)
        return built.env, runner, coordinator, issued_after_ms

    @pytest.mark.parametrize("shape", ["closed", "open"])
    def test_counts_as_a_failure_only(self, shape):
        env, runner, coordinator, issued_after_ms = self._runner(shape)
        runner.start()
        result = runner.result
        timeout_at = runner.start_time + issued_after_ms + self.TIMEOUT_MS
        env.run(until=timeout_at - 1.0)
        assert coordinator.preliminaries_flushed == 1
        assert (result.total_ops, result.divergence.matched,
                result.preliminary_latency.count) == (0, 0, 0)
        env.run(until=timeout_at + 1.0)
        assert result.failed_ops == 1 and result.total_ops == 1
        assert result.divergence.matched == 0
        assert result.divergence.diverged == 0
        assert result.divergence.missing_preliminary == 0
        assert result.preliminary_latency.count == 0
        # The response time is still recorded, as for any measured failure.
        assert result.measured_ops == 1
        assert result.read_latency.samples() == [self.TIMEOUT_MS]
