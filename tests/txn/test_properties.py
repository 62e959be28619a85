"""Property-based atomicity tests for the transaction layer.

Hypothesis drives arbitrary crash schedules — any subset of coordinators
and participants, crashing and restarting at arbitrary times, windows
freely overlapping — against an open-loop transaction stream.  Whatever
the schedule, after everything heals and the fabric drains:

* every client-acked commit is durably applied on **all** owners;
* no transaction is committed on one participant and aborted on another;
* aborted transactions' writes reach no replica table;
* no prepare locks or in-doubt transactions remain.

Transactions are allowed to *fail* (no coordinator reachable inside the
deadline) — robustness means never lying, not never losing.
"""

from hypothesis import given, settings, strategies as st

from repro.core.cluster_spec import ClusterSpec
from repro.sim.rand import derive_rng
from repro.txn import TxnConfig, build_txn_fabric
from txn_helpers import (armed_events, make_fabric, no_failover_config,
                         run_until)

#: Target index 0-1 = coordinators, 2-4 = participants (3-node cluster).
_crash_windows = st.lists(
    st.tuples(st.integers(min_value=0, max_value=4),
              st.floats(min_value=200.0, max_value=3_500.0),
              st.floats(min_value=100.0, max_value=1_500.0)),
    max_size=4)


def _run_chaos(windows, txn_count, interval_ms, keys_per_txn, rng_seed):
    built = ClusterSpec(nodes=3, seed=11, record_count=40,
                        client_regions=()).build()
    fabric = build_txn_fabric(built, config=TxnConfig(), coordinator_count=2)
    manager = fabric.manager
    env = built.env
    targets = list(fabric.coordinators) + [
        fabric.participants[k] for k in sorted(fabric.participants)]

    horizon = 0.0
    for index, at_ms, duration_ms in windows:
        node = targets[index]
        env.scheduler.schedule_at(at_ms, node.crash)
        env.scheduler.schedule_at(at_ms + duration_ms, node.recover)
        horizon = max(horizon, at_ms + duration_ms)

    keys = built.dataset.keys()
    rng = derive_rng(rng_seed, "chaos:txns")

    def _submit():
        chosen = sorted(rng.sample(range(len(keys)), keys_per_txn))
        manager.execute({keys[i]: f"v{rng.randrange(1 << 20)}"
                         for i in chosen})

    for i in range(txn_count):
        env.scheduler.schedule_at(i * interval_ms, _submit)
    horizon = max(horizon, txn_count * interval_ms)

    # Drain far past the last fault, every client deadline + retry budget,
    # and the takeover/redelivery periods, so the audit sees a settled run.
    env.run(until=horizon + 30_000.0)
    return fabric


@given(windows=_crash_windows,
       txn_count=st.integers(min_value=1, max_value=20),
       interval_ms=st.floats(min_value=20.0, max_value=120.0),
       keys_per_txn=st.integers(min_value=1, max_value=2),
       rng_seed=st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=25, deadline=None)
def test_acked_outcomes_stay_atomic_under_arbitrary_crashes(
        windows, txn_count, interval_ms, keys_per_txn, rng_seed):
    fabric = _run_chaos(windows, txn_count, interval_ms, keys_per_txn,
                        rng_seed)
    manager = fabric.manager
    # Conservation: every submitted transaction reached exactly one of the
    # three terminal states (committed, aborted, failed-with-error).
    resolved = (len(manager.acked_commits) + len(manager.acked_aborts)
                + manager.failed_requests)
    assert resolved == txn_count == manager.txns_submitted
    # The hard invariants: raises (failing the example) on any violation.
    fabric.assert_atomic()


@given(windows=_crash_windows, rng_seed=st.integers(0, 2 ** 16))
@settings(max_examples=10, deadline=None)
def test_a_faultless_tail_always_commits(windows, rng_seed):
    """Whatever the earlier chaos, a transaction submitted after every node
    healed (and breakers had time to probe) must commit."""
    fabric = _run_chaos(windows, txn_count=3, interval_ms=50.0,
                        keys_per_txn=1, rng_seed=rng_seed)
    manager = fabric.manager
    committed_before = len(manager.acked_commits)
    key = fabric.built.dataset.keys()[0]
    manager.execute({key: "tail"})
    fabric.built.env.run(until=fabric.built.env.now() + 15_000.0)
    assert len(manager.acked_commits) == committed_before + 1
    for owner in fabric.owners_of(key):
        assert fabric.participants[owner].replica.table.get(key).value \
            == "tail"
    fabric.assert_atomic()


@given(service_ms=st.floats(min_value=0.1, max_value=80.0),
       timeout_ms=st.floats(min_value=2.0, max_value=1_200.0),
       depose_after_ms=st.floats(min_value=0.0, max_value=120.0))
@settings(max_examples=30, deadline=None)
def test_a_deposition_mid_transaction_votes_once_per_request(
        service_ms, timeout_ms, depose_after_ms):
    """The shape of ``TestEpochFencing._deposed_and_back`` with its timings
    drawn: the coordinator is deposed ``depose_after_ms`` after it began the
    transaction, and takes over again.  No participant votes twice for one
    ``InFlightTxn``, no prepare timeout fires for a decided transaction,
    and the manager never has two events armed for its ``TxnOp``."""
    fabric = make_fabric(config=no_failover_config(
        coordinator_service_ms=service_ms, client_timeout_ms=timeout_ms))
    env, manager = fabric.built.env, fabric.manager
    first, second = fabric.coordinators
    votes, late_timeouts, armed = [], [], []

    def watch_votes(participant):
        handle = participant._handle_prepare

        def recording(coordinator, epoch, request):
            cast = participant.votes_yes + participant.votes_no
            handle(coordinator, epoch, request)
            if participant.votes_yes + participant.votes_no > cast:
                votes.append((participant.name, request))
        participant._handle_prepare = recording

    def watch_timeouts(coordinator):
        on_timeout = coordinator._on_prepare_timeout

        def recording(state):
            decided = state.op.txn_id in coordinator.decided
            fired = coordinator.prepare_timeouts
            on_timeout(state)
            if decided and coordinator.prepare_timeouts > fired:
                late_timeouts.append(state)
        coordinator._on_prepare_timeout = recording

    dispatch = manager._dispatch

    def recording_dispatch(op):
        dispatch(op)
        armed.append(len(armed_events(fabric)))

    for participant in fabric.participants.values():
        watch_votes(participant)
    for coordinator in fabric.coordinators:
        watch_timeouts(coordinator)
    manager._dispatch = recording_dispatch

    manager.execute({fabric.built.dataset.keys()[0]: "v"})
    run_until(env, lambda: first.txns_started == 1, step_ms=0.05,
              limit_ms=1_000.0)
    env.run(until=env.now() + depose_after_ms)
    second._send_control(64, first, first.takeover.heartbeat, second.name, 2)
    run_until(env, lambda: not first.active, step_ms=0.05, limit_ms=1_000.0)
    first.takeover.take_over()
    env.run_until_idle()

    assert len({(name, id(request)) for name, request in votes}) \
        == len(votes)
    assert late_timeouts == []
    assert armed and max(armed) <= 1
    assert armed_events(fabric) == []
    assert not any(fabric.in_flight().values())
    fabric.assert_atomic()
