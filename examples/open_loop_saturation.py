#!/usr/bin/env python
"""Open-loop load: drive a store past saturation and watch it degrade.

Every paper figure uses a *closed loop* — each client thread waits for its
previous operation before issuing the next — which by construction can never
overload the store.  This example uses the open-loop engine instead: a
deterministic Poisson arrival process decides when simulated users show up,
whether or not the store has kept pace, and an admission controller decides
what happens to the excess.

The sweep below offers increasing load to a primary/backup store through a
pool of 500 lightweight client sessions (all multiplexed over one binding;
no per-user threads), once with each admission policy:

* ``queue`` — arrivals beyond the in-flight bound wait in a bounded FIFO;
  past saturation the *queue delay* dominates user-observed latency;
* ``shed``  — arrivals beyond the bound are dropped; latency stays at the
  service time while goodput plateaus and the shed fraction grows.

Everything is seeded: the same seed reproduces the same arrival trace, the
same admission decisions, and the same table.  The full grid (two bindings,
closed-loop overlay, golden-hashed table) is the fig14 benchmark family::

    python -m repro.bench fig14 --quick
    python -m repro.bench fig14 --jobs 4      # byte-identical, parallel

Run with::

    python examples/open_loop_saturation.py
"""

from repro.bindings.primary_backup import (
    PrimaryBackupBinding,
    PrimaryBackupStore,
)
from repro.core.client import CorrectableClient
from repro.core.operations import read, write
from repro.sim.environment import SimEnvironment
from repro.sim.rand import derive_rng
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.records import Dataset
from repro.workloads.runner import OpenLoopRunner
from repro.workloads.ycsb import OperationGenerator, workload_by_name

SEED = 2024
SESSIONS = 500
MAX_IN_FLIGHT = 8
RATES_OPS_S = (50, 100, 200, 400)


def build_stack():
    """A primary/backup store, preloaded, wrapped in a session pool."""
    env = SimEnvironment(seed=SEED)
    store = PrimaryBackupStore(scheduler=env.scheduler,
                               replication_lag_ms=30.0)
    binding = PrimaryBackupBinding(store=store, scheduler=env.scheduler)
    dataset = Dataset(record_count=300, seed=SEED)
    for key, value in dataset.initial_items().items():
        store.write(key, value)
    env.run(until=40.0)  # let the preload reach the backup
    pool = CorrectableClient(binding).sessions(SESSIONS)
    return env, pool, dataset


def make_issue(pool, clock):
    """Issue one operation through the session the runner chose for it and
    complete it into the runner's record (``sink``)."""

    def issue(op_type, key, value, sink, session_id=None):
        session = pool.session(session_id)
        issued_at = clock()
        if op_type == "update":
            correctable = session.invoke_strong(write(key, value))
        else:
            # An ICG read: the record also accounts the preliminary view and
            # whether it diverged from the final one.
            sink.icg = True
            correctable = session.invoke(read(key))
        correctable.set_callbacks(
            on_update=lambda view: sink.deliver_preliminary(
                view.value, None, clock() - issued_at),
            on_final=lambda view: sink.deliver_final(
                view.value, None, clock() - issued_at, view.is_confirmation),
            on_error=lambda exc: sink.deliver_error(
                str(exc), clock() - issued_at))

    return issue


def run_once(rate_ops_s, policy):
    env, pool, dataset = build_stack()
    spec = workload_by_name("A").with_distribution("latest")
    label = f"saturation-{policy}-{rate_ops_s}"
    runner = OpenLoopRunner(
        scheduler=env.scheduler,
        issue=make_issue(pool, env.scheduler.now),
        # Independent, label-derived key/mix streams per session: the keys a
        # user touches never shift when another stream draws more samples.
        make_generator=lambda i: OperationGenerator.seeded(
            spec, dataset, SEED, f"{label}-s{i}"),
        arrivals=PoissonArrivals(rate_ops_s,
                                 derive_rng(SEED, f"{label}:arrivals")),
        sessions=SESSIONS, duration_ms=8_000.0, warmup_ms=1_500.0,
        cooldown_ms=500.0, label=label,
        max_in_flight=MAX_IN_FLIGHT, policy=policy, queue_limit=64)
    return runner.run()


def main() -> None:
    print(f"primary/backup store, {SESSIONS} sessions over one binding, "
          f"max {MAX_IN_FLIGHT} in flight\n")
    header = (f"{'policy':>6}  {'offered':>8}  {'goodput':>8}  {'shed':>6}  "
              f"{'qdelay':>8}  {'final':>8}  {'p99':>8}  {'stale':>6}")
    print(header)
    print("-" * len(header))
    for policy in ("queue", "shed"):
        for rate in RATES_OPS_S:
            result = run_once(rate, policy)
            admission = result.admission
            print(f"{policy:>6}  "
                  f"{result.offered_ops_per_sec():7.0f}/s  "
                  f"{result.throughput_ops_per_sec():7.0f}/s  "
                  f"{admission.shed_percent():5.1f}%  "
                  f"{admission.queue_delay.mean():6.1f}ms  "
                  f"{result.final_latency.mean():6.1f}ms  "
                  f"{result.final_latency.p99():6.1f}ms  "
                  f"{result.divergence.divergence_percent():5.1f}%")
        print()
    print("reading the table: past saturation (~"
          f"{MAX_IN_FLIGHT}/service-time ops/s), 'queue' turns overload "
          "into waiting (queue delay and p99 explode),")
    print("'shed' turns it into drops (latency flat, goodput capped, "
          "shed% grows).  Same seed, same table — always.")


if __name__ == "__main__":
    main()
