"""Figure 14 (beyond the paper): open-loop load and saturation.

Every other figure drives the stores with closed-loop YCSB threads, which by
construction cannot overload anything: each thread waits for its previous
operation before issuing the next.  This harness measures the regime the
paper's motivation actually talks about — *offered* load from many
independent users — by replaying deterministic Poisson arrivals over a pool
of lightweight client sessions (:class:`repro.workloads.runner.OpenLoopRunner`
over :class:`repro.core.client.SessionPool`) and sweeping the offered rate
through each binding's saturation point.

Two bindings are driven through the full Correctables stack
(``CorrectableClient`` → binding → simulated store):

* **cassandra** — Correctable Cassandra (CC2): ICG reads deliver a
  preliminary (R=1) and a final (R=2) view; staleness is the divergence
  between them.
* **primary-backup** — the paper's Listing 7 binding: weak views come from
  a backup lagging ``replication_lag_ms`` behind the primary; staleness is
  how often the backup view disagrees with the primary's.

Admission control bounds each client at ``max_in_flight`` concurrent
operations, under two policies:

* ``queue`` — arrivals beyond the bound wait in a bounded FIFO; queue delay
  is accounted separately and dominates response time past saturation;
* ``shed``  — arrivals beyond the bound are dropped; response time stays
  flat while goodput plateaus and the shed fraction grows.

Each binding also gets a *closed-loop overlay* row (``max_in_flight``
closed-loop threads over the same sessions and issue path) so the table
directly shows what the closed loop hides: at the rates where its latency
looks fine, the open loop is already queueing or shedding.

Shapes to expect: below saturation, open-loop latency matches the closed
overlay and nothing is shed; past each binding's capacity
(≈ ``max_in_flight`` / service time), the ``queue`` rows' queue delay and
p99 explode while the ``shed`` rows keep latency flat and shed the excess;
staleness rises with load as views are read while updates are still
propagating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Sequence,
)

from repro.bench.common import DrainCheck, cassandra_config_for
from repro.core.cluster_spec import ClusterSpec
from repro.bindings.cassandra import CassandraBinding
from repro.core.client import CorrectableClient, SessionPool
from repro.core.operations import read, write
from repro.sim.environment import SimEnvironment
from repro.sim.rand import derive_rng
from repro.sim.topology import Region
from repro.workloads.arrivals import make_arrival_process
from repro.workloads.records import Dataset
from repro.workloads.runner import ClosedLoopRunner, OpenLoopRunner
from repro.workloads.ycsb import OperationGenerator, workload_by_name

if TYPE_CHECKING:  # pragma: no cover - the sweep engine loads on first run
    from repro.bench.sweep import SweepPoint


# ---------------------------------------------------------------------------
# binding setups: environment + CorrectableClient over the binding
# ---------------------------------------------------------------------------

def _setup_cassandra(seed: int, record_count: int):
    """A CC2 cluster with clients in two regions (distinct coordinators).

    Users behind different coordinators are what make preliminary views
    stale: a W=1 write acknowledged by one coordinator takes a WAN hop to
    reach the other, whose R=1 preliminaries read the old value meanwhile.
    """
    scenario = ClusterSpec(
        seed=seed, record_count=record_count,
        client_regions=(Region.IRL, Region.FRK),
        config=cassandra_config_for("CC2")).build()
    bindings = [CassandraBinding(scenario.client_in(region),
                                 strong_read_quorum=2, write_quorum=1)
                for region in (Region.IRL, Region.FRK)]
    return scenario.env, bindings, scenario.dataset, [scenario.cluster]


def _setup_primary_backup(seed: int, record_count: int,
                          replication_lag_ms: float = 30.0):
    """A primary/backup store preloaded on both copies."""
    from repro.bindings.primary_backup import (
        PrimaryBackupBinding, PrimaryBackupStore,
    )
    env = SimEnvironment(seed=seed)
    store = PrimaryBackupStore(scheduler=env.scheduler,
                               replication_lag_ms=replication_lag_ms)
    binding = PrimaryBackupBinding(store=store, scheduler=env.scheduler)
    dataset = Dataset(record_count=record_count, value_size_bytes=100,
                      seed=seed)
    for key, value in dataset.initial_items().items():
        store.write(key, value)
    # Let the preload replicate so the first weak reads hit the backup.
    env.run(until=replication_lag_ms + 1.0)
    return env, [binding], dataset, []


_SETUPS = {
    "cassandra": _setup_cassandra,
    "primary-backup": _setup_primary_backup,
}


def setup_binding(name: str, seed: int, record_count: int):
    """Build one of the figure's stacks: ``(env, bindings, dataset,
    clusters)``, the clusters being the simulated stores behind the
    bindings that have any.

    Public so the perf harness can drive the same stack it benchmarks.
    """
    try:
        setup = _SETUPS[name]
    except KeyError:
        raise KeyError(f"unknown fig14 binding {name!r}; "
                       f"choose from {list(_SETUPS)}") from None
    return setup(seed=seed, record_count=record_count)


def make_session_issue(pools: Sequence[SessionPool],
                       clock: Callable[[], float]) -> Callable:
    """The runner ``issue`` function: one session invocation per operation.

    The open-loop runner hands over the session it chose for the
    operation, so user ``k`` maps structurally to client session
    ``k // regions`` in pool ``k % regions`` — the mapping can never drift
    from the runner's rotation, regardless of issue order or shedding.  The
    closed-loop overlay passes no session and falls back to the same
    deterministic rotation over all sessions.  Reads request every level
    the binding offers (ICG), so a preliminary and a final view arrive and
    their disagreement is the staleness the figure reports; updates take
    the strong (authoritative) path only.

    Over bindings exposing the storage client's sink protocol
    (``lean_read``/``lean_write``; decided once, here) the storage client
    completes each operation straight into the runner's record, with the
    session's invocation counters kept as the ``CorrectableClient`` would;
    over any other binding the operation runs as a ``Correctable`` whose
    views are forwarded into the record.
    """
    if all(hasattr(getattr(pool.client.binding, "client", None), "lean_read")
           for pool in pools):
        return _storage_session_issue(pools)
    return _correctable_session_issue(pools, clock)


def _storage_session_issue(pools: Sequence[SessionPool]) -> Callable:
    total_sessions = sum(len(pool) for pool in pools)
    rotation = {"next": 0}

    def _issue(op_type: str, key: str, value: Optional[str], sink: Any,
               session_id: Optional[int] = None) -> None:
        if session_id is None:
            session_id = rotation["next"]
            rotation["next"] = (rotation["next"] + 1) % total_sessions
        pool = pools[session_id % len(pools)]
        session = pool.session(session_id // len(pools))
        client = session.client
        binding = client.binding
        session.invocations += 1
        client.invocations += 1
        if op_type == "update":
            client.strong_invocations += 1
            binding.client.lean_write(key, value, w=binding.write_quorum,
                                      sink=sink)
        else:
            client.icg_invocations += 1
            sink.icg = True
            binding.client.lean_read(key, r=binding.strong_read_quorum,
                                     icg=True, sink=sink)

    return _issue


def _correctable_session_issue(pools: Sequence[SessionPool],
                               clock: Callable[[], float]) -> Callable:
    total_sessions = sum(len(pool) for pool in pools)
    rotation = {"next": 0}

    def _issue(op_type: str, key: str, value: Optional[str], sink: Any,
               session_id: Optional[int] = None) -> None:
        if session_id is None:
            session_id = rotation["next"]
            rotation["next"] = (rotation["next"] + 1) % total_sessions
        pool = pools[session_id % len(pools)]
        session = pool.session(session_id // len(pools))
        issued_at = clock()
        if op_type == "update":
            correctable = session.invoke_strong(write(key, value))
        else:
            sink.icg = True
            correctable = session.invoke(read(key))
        correctable.set_callbacks(
            on_update=lambda view: sink.deliver_preliminary(
                view.value, None, clock() - issued_at),
            on_final=lambda view: sink.deliver_final(
                view.value, None, clock() - issued_at, view.is_confirmation,
                view.metadata.get("degraded", False)),
            on_error=lambda exc: sink.deliver_error(
                str(exc), clock() - issued_at))

    return _issue


# ---------------------------------------------------------------------------
# the session stack: one builder shared by the figure and the perf harness
# ---------------------------------------------------------------------------

@dataclass
class SessionStack:
    """One binding stack wrapped for session-multiplexed load.

    Built once per run by :func:`build_session_stack`; both this figure and
    the perf harness's ``fig14-open-loop`` scenario drive the same object,
    so the configuration they measure can never drift apart.
    """

    env: Any
    pools: List[SessionPool]
    dataset: Dataset
    spec: Any
    #: The runner-facing issue function (:func:`make_session_issue`).
    issue: Callable
    #: Effective user count: exactly as many as the pools hold, so the
    #: runner's session rotation and the pool rotation stay aligned (one
    #: step per issued operation) and each user maps to one stable
    #: session/region, even when the requested count doesn't divide.
    sessions: int
    #: The simulated clusters under the bindings (for the drain check).
    clusters: List[Any]


def build_session_stack(binding_name: str, *, seed: int, record_count: int,
                        sessions: int, workload: str = "A",
                        distribution: str = "latest") -> SessionStack:
    """Set up a binding and split ``sessions`` users over its client regions."""
    env, bindings, dataset, clusters = setup_binding(
        binding_name, seed=seed, record_count=record_count)
    per_pool = max(1, sessions // len(bindings))
    pools = [CorrectableClient(binding).sessions(per_pool)
             for binding in bindings]
    return SessionStack(
        env=env, pools=pools, dataset=dataset,
        spec=workload_by_name(workload).with_distribution(distribution),
        issue=make_session_issue(pools, env.scheduler.now),
        sessions=per_pool * len(bindings), clusters=clusters)


def make_session_generator(stack: SessionStack, seed: int,
                           label: str) -> Callable[[int], OperationGenerator]:
    """Per-session generators with independent label-derived key/mix streams."""
    return lambda session_id: OperationGenerator.seeded(
        stack.spec, stack.dataset, seed, f"{label}-s{session_id}")


def open_loop_runner(stack: SessionStack, *, seed: int, label: str,
                     rate_ops_s: float, duration_ms: float, warmup_ms: float,
                     cooldown_ms: float, max_in_flight: Optional[int],
                     policy: str, queue_limit: Optional[int],
                     arrivals: str = "poisson") -> OpenLoopRunner:
    """An :class:`OpenLoopRunner` over ``stack``, arrivals seeded from ``label``."""
    return OpenLoopRunner(
        scheduler=stack.env.scheduler, issue=stack.issue,
        make_generator=make_session_generator(stack, seed, label),
        arrivals=make_arrival_process(
            arrivals, rate_ops_s, derive_rng(seed, f"{label}:arrivals")),
        sessions=stack.sessions, duration_ms=duration_ms,
        warmup_ms=warmup_ms, cooldown_ms=cooldown_ms, label=label,
        max_in_flight=max_in_flight, policy=policy, queue_limit=queue_limit)


# ---------------------------------------------------------------------------
# the grid
# ---------------------------------------------------------------------------

def run_fig14_point(point: SweepPoint) -> Dict:
    """Run one (binding, mode, policy, rate) cell of the Figure 14 grid."""
    kwargs = point.kwargs
    binding_name = kwargs["binding"]
    mode = kwargs["mode"]
    seed = kwargs["seed"]
    drain = DrainCheck(point.spec())
    stack = build_session_stack(
        binding_name, seed=seed, record_count=kwargs["record_count"],
        sessions=kwargs["sessions"], workload=kwargs["workload"],
        distribution=kwargs["distribution"])
    label = (f"fig14-{binding_name}-{mode}-{kwargs['policy']}"
             f"-{kwargs['rate_ops_s']}")

    if mode == "closed":
        runner: Any = ClosedLoopRunner(
            scheduler=stack.env.scheduler, issue=stack.issue,
            make_generator=make_session_generator(stack, seed, label),
            threads=kwargs["max_in_flight"],
            duration_ms=kwargs["duration_ms"],
            warmup_ms=kwargs["warmup_ms"],
            cooldown_ms=kwargs["cooldown_ms"],
            label=label)
    else:
        runner = open_loop_runner(
            stack, seed=seed, label=label,
            rate_ops_s=kwargs["rate_ops_s"], arrivals=kwargs["arrivals"],
            duration_ms=kwargs["duration_ms"],
            warmup_ms=kwargs["warmup_ms"],
            cooldown_ms=kwargs["cooldown_ms"],
            max_in_flight=kwargs["max_in_flight"],
            policy=kwargs["policy"],
            queue_limit=kwargs["queue_limit"])
    result = runner.run()
    drain.verify(*stack.clusters)
    admission = result.admission
    return {
        "binding": binding_name,
        "mode": mode,
        "policy": kwargs["policy"] if mode == "open" else "-",
        "arrivals": kwargs["arrivals"] if mode == "open" else "-",
        "offered_rate_ops_s": kwargs["rate_ops_s"] if mode == "open" else 0,
        "offered_ops_s": result.offered_ops_per_sec(),
        "throughput_ops_s": result.throughput_ops_per_sec(),
        "shed_pct": admission.shed_percent() if admission else 0.0,
        "queue_delay_mean_ms": (admission.queue_delay.mean()
                                if admission else 0.0),
        "queue_delay_p99_ms": (admission.queue_delay.p99()
                               if admission else 0.0),
        "preliminary_mean_ms": result.preliminary_latency.mean(),
        "final_mean_ms": result.final_latency.mean(),
        "final_p99_ms": result.final_latency.p99(),
        "staleness_pct": result.divergence.divergence_percent(),
        "measured_ops": result.measured_ops,
        "failed_ops": result.failed_ops,
        "sessions": stack.sessions,
        "max_in_flight": kwargs["max_in_flight"],
        "in_flight_high_water": (admission.in_flight_high_water
                                 if admission else kwargs["max_in_flight"]),
        "queue_high_water": admission.queue_high_water if admission else 0,
    }


def cells(bindings: Iterable[str], policies: Iterable[str],
          rates: Sequence[float], **base: Any):
    """One closed-loop overlay row per binding, then the open-loop sweep."""
    for binding_name in bindings:
        yield ({"binding": binding_name, "mode": "closed", "policy": "-",
                "rate": 0},
               dict(base, binding=binding_name, mode="closed", policy="-",
                    rate_ops_s=0))
        for policy in policies:
            for rate in rates:
                yield ({"binding": binding_name, "mode": "open",
                        "policy": policy, "rate": rate},
                       dict(base, binding=binding_name, mode="open",
                            policy=policy, rate_ops_s=rate))


def format_fig14(records: List[Dict]) -> str:
    """Render the figure as one table: closed overlay first per binding."""
    from repro.metrics.summary import format_table
    columns = ["binding", "mode", "policy", "offered_rate_ops_s",
               "offered_ops_s", "throughput_ops_s", "shed_pct",
               "queue_delay_mean_ms", "queue_delay_p99_ms",
               "preliminary_mean_ms", "final_mean_ms", "final_p99_ms",
               "staleness_pct", "measured_ops"]
    headers = ["binding", "mode", "policy", "rate (ops/s)",
               "offered (ops/s)", "goodput (ops/s)", "shed (%)",
               "qdelay mean (ms)", "qdelay p99 (ms)", "prelim mean (ms)",
               "final mean (ms)", "final p99 (ms)", "staleness (%)", "ops"]
    rows = []
    for record in records:
        row = [record[c] for c in columns]
        # The closed-loop overlay has no offered rate.
        if record["mode"] == "closed":
            row[3] = "-"
        rows.append(row)
    lines = [format_table(
        headers, rows,
        title=("Figure 14 — latency and staleness vs offered load "
               "(open-loop Poisson arrivals over client sessions, "
               "closed-loop overlay, admission-policy ablation)"))]
    sample = records[0] if records else {}
    if sample:
        lines.append(
            f"  sessions={sample['sessions']}, "
            f"max in-flight={sample['max_in_flight']} total; "
            f"'queue' waits in a bounded FIFO (delay accounted above), "
            f"'shed' drops arrivals beyond the in-flight bound")
    return "\n".join(lines)
