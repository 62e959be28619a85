"""Tests for fault integration in the workload runners."""

from repro.faults import FaultEvent, FaultInjector, FaultSchedule
from repro.sim.environment import SimEnvironment
from repro.sim.node import Node
from repro.sim.topology import Region, Topology
from repro.workloads.records import Dataset
from repro.workloads.runner import ClosedLoopRunner
from repro.workloads.ycsb import OperationGenerator, workload_by_name
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
