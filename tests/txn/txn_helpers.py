"""Shared helpers for the transaction-layer tests."""

from __future__ import annotations

from repro.core.cluster_spec import ClusterSpec
from repro.txn import TxnConfig, build_txn_fabric


def no_failover_config(**overrides):
    """Heartbeats off, so ``run_until_idle`` terminates.

    With ``heartbeat_interval_ms=0`` there is no failure detection (and no
    takeover); protocol-level tests that only need the happy paths use this
    so the event queue drains.  Failover tests keep heartbeats on and drive
    the clock with ``env.run(until=...)`` instead.
    """
    overrides.setdefault("heartbeat_interval_ms", 0.0)
    return TxnConfig(**overrides)


def make_fabric(nodes=3, seed=11, record_count=40, config=None,
                coordinator_count=2):
    """A small cluster with the transaction layer wired on top."""
    built = ClusterSpec(nodes=nodes, seed=seed, record_count=record_count,
                        client_regions=()).build()
    return build_txn_fabric(built, config=config or no_failover_config(),
                            coordinator_count=coordinator_count)


def collect(correctable):
    """Record a Correctable's preliminary views, final view, and error."""
    box = {"views": [], "final": None, "error": None}
    correctable.set_callbacks(
        on_update=box["views"].append,
        on_final=lambda view: box.__setitem__("final", view),
        on_error=lambda exc: box.__setitem__("error", exc))
    return box


def run_until(env, condition, step_ms=1.0, limit_ms=60_000.0):
    """Advance simulated time in small steps until ``condition()`` holds."""
    deadline = env.now() + limit_ms
    while not condition():
        if env.now() >= deadline:
            raise AssertionError("condition not reached within "
                                 f"{limit_ms:.0f}ms of simulated time")
        env.run(until=env.now() + step_ms)


def armed_events(fabric):
    """The manager's request timers and backoffs still queued and live."""
    manager = fabric.manager
    return [entry for entry in fabric.built.env.scheduler._heap
            if getattr(entry[2], "__self__", None) is manager
            and entry[2].__name__ in ("_on_request_timeout", "_resend")
            and (entry[4] is None or not entry[4].cancelled)]
