"""Small fault-run slices shared by the determinism goldens and the fault
suites (importable as ``fault_slices``: ``pyproject.toml``'s pytest
``pythonpath`` puts this directory on ``sys.path``).

``open_loop_run`` is perfbench's ``cass-open-faults-b`` in miniature —
open-loop YCSB B over ``CorrectableClient`` sessions with timeouts, failover
and read repair on, through a fault schedule — and ``fingerprint`` is
everything observable about a drained run.

The reference side of every runner-sink ≡ Correctable comparison sends
the same operations through a ``CorrectableClient`` over the Cassandra
binding and forwards the views into the runner's record:
``correctable_kv_issue`` is ``make_kv_issue``'s reference, and
``make_session_issue``'s is its own ``Correctable`` route, forced onto
Cassandra pools.  ``builds_through_correctables`` swaps either builder for
its reference inside harnesses that build their runners internally.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, List, Optional
from unittest import mock

from repro.bench.common import CASSANDRA_SYSTEMS, cassandra_config_for
from repro.bench.fig14_open_loop import (_correctable_session_issue,
                                         make_session_issue)
from repro.bindings.cassandra import CassandraBinding
from repro.cassandra_sim.cluster import CassandraCluster
from repro.cassandra_sim.config import CassandraConfig
from repro.core.client import CorrectableClient
from repro.core.cluster_spec import ClusterSpec
from repro.core.operations import read, write
from repro.faults import FaultInjector
from repro.faults.scenarios import cassandra_aliases
from repro.faults.schedule import FaultSchedule, FaultScheduleBuilder
from repro.sim.environment import SimEnvironment
from repro.sim.rand import derive_rng
from repro.sim.topology import Region
from repro.workloads.arrivals import make_arrival_process
from repro.workloads.runner import OpenLoopRunner
from repro.workloads.ycsb import OperationGenerator, workload_by_name

REGIONS = (Region.IRL, Region.FRK, Region.VRG)


def one_client_cluster(config: Optional[CassandraConfig] = None,
                       fallbacks: bool = True):
    """Three replicas (fault-tolerant unless ``config`` is given),
    ``key0..9`` preloaded as ``value0..9``, one IRL client contacting FRK;
    returns ``(env, cluster, client)``."""
    env = SimEnvironment(seed=11)
    cluster = CassandraCluster(env, config or CassandraConfig.fault_tolerant())
    cluster.preload({f"key{i}": f"value{i}" for i in range(10)})
    return env, cluster, cluster.add_client("client", Region.IRL, Region.FRK,
                                            fallbacks=fallbacks)


def crash_and_degrade(duration_ms: float) -> FaultSchedule:
    """perfbench's fault tile: a replica crash window, then a WAN degrade."""
    return (FaultScheduleBuilder()
            .crash_window("replica:1", at_ms=duration_ms / 3,
                          duration_ms=duration_ms * 4 / 30)
            .degrade_window(f"region:{Region.FRK}", f"region:{Region.VRG}",
                            at_ms=2 * duration_ms / 3,
                            duration_ms=duration_ms * 5 / 30, extra_ms=120.0)
            .build())


def fault_windows(max_at_ms: float, max_duration_ms: float):
    """Hypothesis strategy: one to four ``(kind, a, b, at_ms, duration_ms)``
    fault windows over the three replicas / regions (see
    :func:`schedule_from_windows`)."""
    from hypothesis import strategies as st

    return st.lists(
        st.tuples(st.sampled_from(["crash", "partition", "degrade", "slow"]),
                  st.integers(min_value=0, max_value=2),
                  st.integers(min_value=0, max_value=2),
                  st.floats(min_value=50.0, max_value=max_at_ms),
                  st.floats(min_value=20.0, max_value=max_duration_ms)),
        min_size=1, max_size=4)


def schedule_from_windows(windows, extra_ms: float = 40.0,
                          slow_factor: float = 5.0) -> FaultSchedule:
    """Replica ``a`` crashes or slows down (``slow_factor`` × 1..3); the link
    between region ``a`` and one of the other two partitions or gains
    ``extra_ms`` × 1..3 of latency."""
    builder = FaultScheduleBuilder()
    for kind, a, b, at_ms, duration_ms in windows:
        region_a = f"region:{REGIONS[a]}"
        region_b = f"region:{REGIONS[(a + 1 + b % 2) % 3]}"
        if kind == "crash":
            builder.crash_window(f"replica:{a}", at_ms, duration_ms)
        elif kind == "partition":
            builder.partition_window(region_a, region_b, at_ms, duration_ms)
        elif kind == "degrade":
            builder.degrade_window(region_a, region_b, at_ms, duration_ms,
                                   extra_ms=extra_ms * (b + 1))
        else:
            builder.slow_window(f"replica:{a}", at_ms, duration_ms,
                                factor=slow_factor * (b + 1))
    return builder.build()


def correctable_kv_issue(client, system: str,
                         write_quorum: int = 1) -> Callable:
    """``make_kv_issue``'s operations through a ``CorrectableClient`` over
    the Cassandra binding (C1 reads ``invoke_weak``, C2/C3 reads
    ``invoke_strong`` at read quorum r, CC2/CC3 reads ``invoke``, updates
    ``invoke_strong``), each view forwarded into the runner's record."""
    profile = CASSANDRA_SYSTEMS[system]
    read_quorum, icg = profile["r"], profile["icg"]
    correctables = CorrectableClient(CassandraBinding(
        client, strong_read_quorum=max(read_quorum, 2),
        write_quorum=write_quorum))
    clock = client.scheduler.now

    def issue(op_type: str, key: str, value: Optional[str], sink: Any,
              session_id: Optional[int] = None) -> None:
        issued_at = clock()
        if op_type == "update":
            correctable = correctables.invoke_strong(write(key, value))
        elif icg:
            sink.icg = True
            correctable = correctables.invoke(read(key))
        elif read_quorum == 1:
            correctable = correctables.invoke_weak(read(key))
        else:
            correctable = correctables.invoke_strong(read(key))
        correctable.set_callbacks(
            on_update=lambda view: sink.deliver_preliminary(
                view.value, None, view.metadata["latency_ms"]),
            on_final=lambda view: sink.deliver_final(
                view.value, None, view.metadata["latency_ms"],
                view.is_confirmation, view.metadata["degraded"]),
            on_error=lambda exc: sink.deliver_error(
                str(exc), clock() - issued_at))

    return issue


#: Issue builder -> its Correctables reference (same arguments).
_REFERENCES = {"make_kv_issue": correctable_kv_issue,
               "make_session_issue": _correctable_session_issue}


def builds_through_correctables(module, name: str):
    """Context: ``module.name`` (``make_kv_issue`` or ``make_session_issue``)
    builds its Correctables reference instead, for harnesses that build
    their runners internally."""
    return mock.patch.object(module, name, _REFERENCES[name])


def _recorder(recorder) -> List[float]:
    return list(recorder._samples)


def fingerprint(env, cluster, results, correctables=()) -> Dict[str, Any]:
    network = env.network
    run = []
    for result in results:
        admission = result.admission
        run.append({
            "total": result.total_ops, "measured": result.measured_ops,
            "failed": result.failed_ops, "degraded": result.degraded_ops,
            "final": _recorder(result.final_latency),
            "preliminary": _recorder(result.preliminary_latency),
            "read": _recorder(result.read_latency),
            "update": _recorder(result.update_latency),
            "divergence": (result.divergence.matched,
                           result.divergence.diverged,
                           result.divergence.missing_preliminary),
            "admission": None if admission is None else (
                admission.offered, admission.admitted, admission.shed,
                admission.in_flight_high_water, admission.queue_high_water,
                _recorder(admission.queue_delay)),
        })
    return {
        "run": run,
        "network": (network.messages_sent, network.messages_delivered,
                    network.messages_dropped, network.total_bytes()),
        "clients": [(c.reads_sent, c.writes_sent, c.retries,
                     c.late_preliminaries, c.failed_requests)
                    for c in cluster.clients],
        "replicas": [(r.reads_coordinated, r.writes_coordinated,
                      r.preliminaries_flushed, r.read_retries,
                      r.write_retries, r.reads_downgraded,
                      r.writes_downgraded, r.reads_failed, r.writes_failed)
                     for r in cluster.replicas],
        "invocations": [(c.invocations, c.icg_invocations,
                         c.strong_invocations) for c in correctables],
        "events": env.scheduler.events_executed,
        "in_flight": cluster.in_flight(),
        "live_events": env.scheduler.pending(live_only=True),
    }


def open_loop_run(via_correctables: bool = False,
                  schedule: Optional[FaultSchedule] = None,
                  duration_ms: float = 6_000.0, rate_ops_s: float = 150.0,
                  sessions_per_region: int = 10, seed: int = 5):
    """Open-loop YCSB B over CorrectableClient sessions through ``schedule``
    (``via_correctables=True``: through the sessions' ``Correctable``
    route); returns ``(trace digest, fingerprint, cluster)``."""
    built = ClusterSpec(
        seed=seed, record_count=120, client_regions=REGIONS,
        config=CassandraConfig.fault_tolerant(
            value_size_bytes=cassandra_config_for("CC2").value_size_bytes),
        client_fallbacks=True).build()
    env, cluster = built.env, built.cluster
    correctables = [CorrectableClient(CassandraBinding(
        built.client_in(region), strong_read_quorum=2, write_quorum=1))
        for region in REGIONS]
    pools = [client.sessions(sessions_per_region) for client in correctables]
    if schedule is None:
        schedule = crash_and_degrade(duration_ms)
    injector = FaultInjector(env, schedule=schedule,
                             aliases=cassandra_aliases(cluster))
    spec = workload_by_name("B").with_distribution("zipfian")
    build = (_correctable_session_issue if via_correctables
             else make_session_issue)
    runner = OpenLoopRunner(
        scheduler=env.scheduler, issue=build(pools, env.scheduler.now),
        make_generator=lambda session_id: OperationGenerator.seeded(
            spec, built.dataset, seed, f"equiv-s{session_id}"),
        arrivals=make_arrival_process(
            "poisson", rate_ops_s, derive_rng(seed, "equiv:arrivals")),
        sessions=sessions_per_region * len(pools), duration_ms=duration_ms,
        warmup_ms=duration_ms / 10, cooldown_ms=duration_ms / 10,
        label="equiv", faults=injector, max_in_flight=64, policy="queue",
        queue_limit=256)
    trace = env.scheduler.start_trace()
    runner.run()
    env.run_until_idle()
    digest = hashlib.sha256(repr(trace).encode()).hexdigest()
    return digest, fingerprint(env, cluster, [runner.result],
                               correctables), cluster
