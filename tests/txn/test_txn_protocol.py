"""2PC protocol tests: commit/abort paths, locks, deadlines, idempotency.

These tests run with heartbeats disabled (no failure detection), so the
event queue drains and ``run_until_idle`` terminates; coordinator failover
is exercised separately in ``test_failover.py``.
"""

import pytest

from repro.core.consistency import STRONG
from repro.txn import (
    PREPARED, TransactionError, TxnConfig, TxnState, txn_aliases,
)
from repro.txn.coordinator import InFlightTxn, TwoPhaseCommitCoordinator
from repro.txn.manager import TxnOp
from txn_helpers import (armed_events, collect, make_fabric,
                         no_failover_config, run_until)


def _record_sends(manager):
    """The simulated times at which ``manager`` sends a transaction: every
    attempt picks its coordinator and sends to it at once."""
    sends = []
    pick = manager.balancer.pick

    def record(now_ms, *args, **kwargs):
        sends.append(now_ms)
        return pick(now_ms, *args, **kwargs)

    manager.balancer.pick = record
    return sends


class TestCommitPath:
    def test_commit_applies_on_every_owner(self):
        fabric = make_fabric()
        manager = fabric.manager
        keys = fabric.built.dataset.keys()[:2]
        writes = {keys[0]: "txn-a", keys[1]: "txn-b"}
        box = collect(manager.execute(writes))
        fabric.built.env.run_until_idle()

        assert box["error"] is None
        final = box["final"]
        assert final.value["outcome"] == "commit"
        assert final.consistency == STRONG
        # The speculative PREPARED view fired first and agreed with the
        # final outcome.
        assert [view.consistency for view in box["views"]] == [PREPARED]
        assert box["views"][0].value["speculative"] is True
        assert manager.stats.prepared_views == 1
        assert manager.stats.matched == 1
        assert manager.stats.mismatched == 0
        assert manager.stats.accuracy() == 1.0

        txn_id = final.value["txn_id"]
        timestamp = final.value["timestamp"]
        for key, value in writes.items():
            for owner in fabric.owners_of(key):
                participant = fabric.participants[owner]
                record = participant.log.get(txn_id)
                assert record is not None
                assert record.state == TxnState.COMMITTED
                stored = participant.replica.table.get(key)
                assert stored.value == value
                assert stored.timestamp == timestamp
                assert txn_id in participant.applied
        # All prepare locks were released on commit.
        assert all(not p.locks for p in fabric.participants.values())
        fabric.assert_atomic()

    def test_duplicate_begin_is_idempotent(self):
        fabric = make_fabric()
        manager = fabric.manager
        env = fabric.built.env
        key = fabric.built.dataset.keys()[0]
        box = collect(manager.execute({key: "v1"}))
        (op,) = manager._pending.values()
        env.run_until_idle()
        txn_id = box["final"].value["txn_id"]
        coordinator = fabric.active_coordinator()

        # A retried submission of an already-decided transaction must not
        # re-run 2PC: the coordinator replays the decided outcome and every
        # participant applies the commit exactly once.
        applied_before = {name: p.commits_applied
                          for name, p in fabric.participants.items()}
        assert op.txn_id == txn_id
        env.network.fused_send_to(manager, coordinator.name, op.size_bytes,
                                  coordinator._txn_begin, (op,))
        env.run_until_idle()

        assert manager.duplicate_finals == 1
        assert coordinator.txns_started == 1
        assert coordinator.commits == 1
        for name, participant in fabric.participants.items():
            assert participant.commits_applied == applied_before[name]
        fabric.assert_atomic()


class TestServiceCharges:
    """Every 2PC step charges its node's queue the cost its config names."""

    def _commit_one(self):
        config = no_failover_config(coordinator_service_ms=3.0,
                                    decision_log_ms=2.0,
                                    prepare_service_ms=0.7,
                                    commit_service_ms=1.1)
        fabric = make_fabric(config=config)
        key = fabric.built.dataset.keys()[0]
        box = collect(fabric.manager.execute({key: "v"}))
        fabric.built.env.run_until_idle()
        assert box["final"].value["outcome"] == "commit"
        return fabric, key

    def test_coordinator_charges_begin_and_decision_log(self):
        fabric, _ = self._commit_one()
        queue = fabric.active_coordinator().queue
        assert queue.jobs_processed == 2
        assert queue.busy_time == pytest.approx(3.0 + 2.0)

    def test_participants_charge_prepare_and_commit(self):
        fabric, key = self._commit_one()
        owners = set(fabric.owners_of(key))
        assert owners
        for name, participant in fabric.participants.items():
            queue = participant.queue
            if name in owners:
                assert queue.jobs_processed == 2
                assert queue.busy_time == pytest.approx(0.7 + 1.1)
            else:
                assert queue.jobs_processed == 0


class TestAbortPaths:
    def test_conflicting_transactions_serialize_by_abort(self):
        fabric = make_fabric()
        manager = fabric.manager
        key = fabric.built.dataset.keys()[0]
        first = collect(manager.execute({key: "first"}))
        second = collect(manager.execute({key: "second"}))
        fabric.built.env.run_until_idle()

        outcomes = sorted(box["final"].value["outcome"]
                          for box in (first, second))
        assert outcomes == ["abort", "commit"]
        conflicts = sum(p.lock_conflicts
                        for p in fabric.participants.values())
        assert conflicts >= 1
        # The winner's value is what every owner stores; the loser's writes
        # reached no replica table.
        winner_value = ("first" if first["final"].value["outcome"] == "commit"
                        else "second")
        for owner in fabric.owners_of(key):
            stored = fabric.participants[owner].replica.table.get(key)
            assert stored.value == winner_value
        fabric.assert_atomic()

    def test_expired_budget_aborts(self):
        fabric = make_fabric(config=no_failover_config(txn_deadline_ms=1.0))
        manager = fabric.manager
        key = fabric.built.dataset.keys()[0]
        box = collect(manager.execute({key: "late"}))
        fabric.built.env.run_until_idle()

        # Participants refuse to prepare past the deadline (or the
        # coordinator's clamped vote-collection timeout fires): the outcome
        # is a clean abort, never a commit and never a hang.
        assert box["final"].value["outcome"] == "abort"
        assert box["views"] == []          # no speculative view either
        refusals = sum(p.deadline_refusals
                       for p in fabric.participants.values())
        timeouts = sum(c.prepare_timeouts for c in fabric.coordinators)
        assert (refusals, timeouts) == (1, 1)
        for owner in fabric.owners_of(key):
            stored = fabric.participants[owner].replica.table.get(key)
            assert stored is None or stored.value != "late"
        fabric.assert_atomic()

    def test_a_vote_after_the_prepare_timeout_is_ignored(self):
        """Every owner serves the prepare after the coordinator gave up on
        it: the late yes votes find the transaction decided."""
        fabric = make_fabric(config=no_failover_config(
            prepare_service_ms=50.0, prepare_timeout_ms=10.0))
        key = fabric.built.dataset.keys()[0]
        box = collect(fabric.manager.execute({key: "late"}))
        fabric.built.env.run_until_idle()

        coordinator = fabric.coordinators[0]
        assert box["final"].value["outcome"] == "abort"
        assert (coordinator.prepare_timeouts, coordinator.aborts,
                coordinator.commits) == (1, 1, 0)
        owners = [fabric.participants[name] for name in fabric.owners_of(key)]
        assert all(owner.votes_yes == 1 for owner in owners)
        assert not any(fabric.in_flight().values())
        fabric.assert_atomic()

    def test_no_live_coordinator_fails_the_transaction(self):
        fabric = make_fabric()
        manager = fabric.manager
        env = fabric.built.env
        for coordinator in fabric.coordinators:
            coordinator.crash()
        sends = _record_sends(manager)
        key = fabric.built.dataset.keys()[0]
        box = collect(manager.execute({key: "v"}))
        env.run_until_idle()

        assert box["final"] is None
        assert isinstance(box["error"], TransactionError)
        assert manager.failed_requests == 1
        assert manager.retries == manager.config.client_retries
        # Each re-send waits out the 1,200 ms client timeout and then a
        # backoff of 25, 50 and 100 ms; the fourth timeout is the error,
        # and nothing runs after it.
        assert sends == [0.0, 1_225.0, 2_475.0, 3_775.0]
        assert env.now() == 4_975.0
        # The health tracker saw every timeout.
        assert fabric.balancer.times_opened() >= 1

    def test_backoff_does_not_resend_a_finished_transaction(self):
        # Every final lands inside the 25 ms backoff after its 100 ms
        # timeout: the re-send must find the transaction done, not begin it
        # again at a standby that then redirects it for nothing.
        fabric = make_fabric(
            config=no_failover_config(client_timeout_ms=100.0))
        manager = fabric.manager
        env = fabric.built.env
        keys = fabric.built.dataset.keys()[:10]
        boxes = [collect(manager.execute({keys[i]: "a", keys[i + 1]: "b"}))
                 for i in range(0, 10, 2)]
        env.run_until_idle()

        assert [box["final"].value["outcome"] for box in boxes] == \
            ["commit"] * 5
        assert manager.retries == 5
        redirects_sent = sum(c.redirects for c in fabric.coordinators)
        assert redirects_sent == manager.redirects_followed == 2
        # One pick per transaction and per redirect: no re-send went out.
        assert fabric.balancer.picks == 5 + 2
        assert env.network.messages_delivered == 79
        fabric.assert_atomic()

    def test_a_redirect_overtakes_the_queued_backoff(self, monkeypatch):
        """The first attempt goes to the standby, and the 2 ms timer fires
        before its redirect lands: the redirect re-sends at once, in place
        of the 25 ms backoff then queued.  One event stays armed, so one
        retry chain runs; the queued backoff used to re-send at 27 ms as
        well."""
        fabric = make_fabric(
            config=no_failover_config(client_timeout_ms=2.0))
        manager = fabric.manager
        standby = fabric.coordinators[1].name
        sends = _record_sends(manager)
        pick = manager.balancer.pick
        manager.balancer.pick = lambda now_ms, **hints: (
            pick(now_ms, **hints) if sends else sends.append(now_ms) or standby)
        armed = []
        dispatch = manager._dispatch

        def recording(op):
            dispatch(op)
            armed.append(len(armed_events(fabric)))

        monkeypatch.setattr(manager, "_dispatch", recording)
        box = collect(manager.execute({fabric.built.dataset.keys()[0]: "v"}))
        fabric.built.env.run_until_idle()

        # Sent, redirected, re-sent after the 50 ms backoff, redirected.
        assert sends == pytest.approx([0.0, 2.047, 54.047, 56.084], abs=1e-3)
        assert armed == [1, 1, 1, 1]
        assert manager.redirects_followed == 2 and manager.retries == 3
        assert isinstance(box["error"], TransactionError)
        assert not any(fabric.in_flight().values())

    def test_a_redirect_loop_burns_a_retry(self):
        # Neither coordinator is active: each redirects to the other, and
        # the fifth redirect (two per coordinator allowed) counts as a
        # timeout, which with no retries left fails the transaction.
        fabric = make_fabric(config=no_failover_config(client_retries=0))
        fabric.coordinators[0].deactivate()
        box = collect(fabric.manager.execute(
            {fabric.built.dataset.keys()[0]: "v"}))
        fabric.built.env.run_until_idle()
        assert isinstance(box["error"], TransactionError)
        assert fabric.manager.redirects_followed == 5
        assert fabric.manager.failed_requests == 1
        assert fabric.built.env.now() < 150.0  # no timer was waited out
        assert not any(fabric.in_flight().values())

    def test_giving_up_after_the_prepared_view_leaves_it_unresolved(self):
        # The commit's final is lost (its manager was down when it
        # landed), and no retry is left to fetch it again.
        fabric = make_fabric(config=no_failover_config(
            client_timeout_ms=300.0, client_retries=0))
        manager, env = fabric.manager, fabric.built.env
        box = collect(manager.execute({fabric.built.dataset.keys()[0]: "v"}))
        run_until(env, lambda: manager.stats.prepared_views == 1)
        run_until(env, lambda: not env.scheduler._heap
                  or env.scheduler._heap[0][2] == manager._txn_final)
        manager.crash()
        env.scheduler.step()
        manager.recover()
        env.run_until_idle()
        assert isinstance(box["error"], TransactionError)
        assert fabric.coordinators[0].commits == 1
        assert (manager.stats.prepared_views, manager.stats.unresolved) \
            == (1, 1)
        assert not any(fabric.in_flight().values())


def _unanswered(**overrides):
    """One transaction against crashed coordinators, run until idle:
    ``(manager, box, sends, failures fed to the balancer, end time)``."""
    fabric = make_fabric(config=no_failover_config(**overrides))
    manager = fabric.manager
    env = fabric.built.env
    for coordinator in fabric.coordinators:
        coordinator.crash()
    sends = _record_sends(manager)
    failures = []
    record_failure = manager.balancer.record_failure

    def count_failure(node, now_ms):
        failures.append((now_ms, node))
        record_failure(node, now_ms)

    manager.balancer.record_failure = count_failure
    key = fabric.built.dataset.keys()[0]
    box = collect(manager.execute({key: "v"}))
    env.run_until_idle()
    return manager, box, sends, failures, env.now()


class TestResendSchedule:
    """The manager's timeout rule with a 100 ms client timeout: the ``n``-th
    re-send waits out the timeout and then ``min(400, 25 * 2 ** (n - 1))``
    ms of backoff."""

    @pytest.mark.parametrize("retries, sends_at, fails_at", [
        (0, [0.0], 100.0),
        (1, [0.0, 125.0], 225.0),
        (2, [0.0, 125.0, 275.0], 375.0),
        (3, [0.0, 125.0, 275.0, 475.0], 575.0),
        (4, [0.0, 125.0, 275.0, 475.0, 775.0], 875.0),
        # 25 * 2 ** 4 is the 400 ms cap itself; 25 * 2 ** 5 is capped.
        (5, [0.0, 125.0, 275.0, 475.0, 775.0, 1_275.0], 1_375.0),
        (6, [0.0, 125.0, 275.0, 475.0, 775.0, 1_275.0, 1_775.0], 1_875.0),
    ])
    def test_retries_back_off_then_the_transaction_fails(
            self, retries, sends_at, fails_at):
        manager, box, sends, failures, end = _unanswered(
            client_timeout_ms=100.0, client_retries=retries)
        assert sends == sends_at
        assert end == fails_at
        assert isinstance(box["error"], TransactionError)
        assert box["final"] is None
        assert manager.retries == retries
        assert manager.failed_requests == 1
        assert not manager._pending
        # Every timeout, the last one included, is charged to the
        # coordinator that went silent.
        assert [at for at, _ in failures] == [
            at + 100.0 for at in sends_at]

    @pytest.mark.parametrize("deadline_ms, sends_at, fails_at", [
        (100.0, [0.0], 100.0),          # the first timeout meets it
        (100.5, [0.0, 125.0], 225.0),   # the first timeout falls short
        (225.0, [0.0, 125.0], 225.0),
        (225.5, [0.0, 125.0, 275.0], 375.0),
    ])
    def test_no_resend_once_the_deadline_has_passed(
            self, deadline_ms, sends_at, fails_at):
        # Three retries would go on to 575 ms: the deadline cuts them short
        # at the first timeout that comes at or after it.
        manager, box, sends, _, end = _unanswered(
            client_timeout_ms=100.0, txn_deadline_ms=deadline_ms)
        assert manager.config.client_retries == 3
        assert sends == sends_at
        assert end == fails_at
        assert isinstance(box["error"], TransactionError)
        assert manager.retries == len(sends_at) - 1
        assert manager.failed_requests == 1

    def test_timeouts_off_wait_for_ever(self):
        manager, box, sends, failures, end = _unanswered(
            client_timeout_ms=0.0)
        assert sends == [0.0]
        assert end == 0.0
        assert box["error"] is None and box["final"] is None
        assert len(manager._pending) == 1
        assert manager.retries == manager.failed_requests == 0
        assert failures == []


class TestFabricWiring:
    def test_txn_aliases_cover_coordinators_and_participants(self):
        fabric = make_fabric()
        aliases = txn_aliases(fabric)
        # txn-coordinator:0 is the initially active coordinator — the one
        # the coordinator-crash-mid-commit scenario targets.
        assert aliases["txn-coordinator:0"] == fabric.coordinators[0].name
        assert aliases["txn-coordinator:1"] == fabric.coordinators[1].name
        participant_aliases = {k: v for k, v in aliases.items()
                               if k.startswith("txn-participant:")}
        assert len(participant_aliases) == len(fabric.participants)
        assert set(participant_aliases.values()) == set(fabric.participants)

    def test_empty_transaction_rejected(self):
        fabric = make_fabric()
        with pytest.raises(ValueError):
            fabric.manager.execute({})


class TestConfigValidation:
    def test_a_coordinator_timeout_must_exceed_the_heartbeat(self):
        with pytest.raises(ValueError, match="coordinator_timeout_ms"):
            no_failover_config(heartbeat_interval_ms=500.0,
                               coordinator_timeout_ms=450.0)

    def test_zero_periods_stay_legal_where_they_mean_off(self):
        # Heartbeats off (no failure detection) need no coordinator
        # timeout above them; client timeouts off are the fault-free
        # default of the storage clients too.
        config = no_failover_config(coordinator_timeout_ms=0.0,
                                    client_timeout_ms=0.0)
        assert config.heartbeat_interval_ms == 0.0


class TestParticipantGuards:
    def _ghost_decision(self, timestamp):
        fabric = make_fabric()
        coordinator = fabric.coordinators[0]
        participant = fabric.participants[sorted(fabric.participants)[0]]
        participant._txn_decision(coordinator, coordinator.epoch, "ghost:1",
                                  timestamp)
        return fabric, coordinator, participant

    def test_a_commit_for_a_transaction_never_prepared_applies_nothing(self):
        fabric, coordinator, participant = self._ghost_decision(
            (0.0, "txn-coordinator-0", 1))
        fabric.built.env.run_until_idle()
        assert participant.commits_applied == 0 and not participant.applied
        assert participant.log.get("ghost:1") is None
        assert fabric.built.env.network.link_stats(
            participant.name, coordinator.name).messages == 0

    def test_an_abort_job_served_after_a_crash_does_nothing(self):
        fabric, coordinator, participant = self._ghost_decision(None)
        participant.crash()
        fabric.built.env.run_until_idle()
        participant.recover()
        assert participant.aborts_logged == 0
        assert participant.log.get("ghost:1") is None
        assert fabric.built.env.network.link_stats(
            participant.name, coordinator.name).messages == 0


class TestEpochFencing:
    def test_participant_rejects_stale_epoch_messages(self):
        fabric = make_fabric()
        manager = fabric.manager
        env = fabric.built.env
        key = fabric.built.dataset.keys()[0]
        collect(manager.execute({key: "v"}))
        env.run_until_idle()

        participant = fabric.participants[fabric.owners_of(key)[0]]
        assert participant.epoch >= 1
        votes_before = participant.votes_yes + participant.votes_no
        ghost = fabric.coordinators[1]
        op = TxnOp("ghost:1", {key: "ghost"}, manager.name, float("inf"),
                   170, None, 0.0)
        request = InFlightTxn(op, (participant.name,),
                              {participant.name: op.writes})
        env.network.fused_send_to(ghost, participant.name, 170,
                                  participant._txn_prepare,
                                  (ghost, 0, request))
        env.run_until_idle()

        assert participant.stale_epoch_rejections == 1
        assert participant.votes_yes + participant.votes_no == votes_before
        assert participant.log.get("ghost:1") is None

    def _take_over_with_work_queued(self, sent, **overrides):
        """One transaction over three owners: once ``sent(old)`` holds, the
        old coordinator crashes and the standby takes over at once, while
        what the old one sent still waits in the owners' queues (their
        service times are long) when the successor's probes raise the
        epoch and read the logs."""
        fabric = make_fabric(config=no_failover_config(**overrides))
        env = fabric.built.env
        old, successor = fabric.coordinators
        key = fabric.built.dataset.keys()[0]
        assert len(fabric.owners_of(key)) == 3
        fabric.manager.execute({key: "fenced"})
        run_until(env, lambda: sent(old, fabric), step_ms=0.05,
                  limit_ms=5_000.0)
        old.crash()
        successor.takeover.take_over()
        env.run_until_idle()
        return fabric

    def _deposed_and_back(self, **overrides):
        """A higher epoch deposes the coordinator while its prepare job
        waits in its queue (50 ms of service), and it takes over again
        before the job is served; the run then drains."""
        fabric = make_fabric(config=no_failover_config(
            coordinator_service_ms=50.0, **overrides))
        env = fabric.built.env
        first, second = fabric.coordinators
        key = fabric.built.dataset.keys()[0]
        box = collect(fabric.manager.execute({key: "v"}))
        run_until(env, lambda: first.txns_started == 1, step_ms=0.05,
                  limit_ms=1_000.0)
        second._send_control(64, first, first.takeover.heartbeat,
                             second.name, 2)
        run_until(env, lambda: not first.active, step_ms=0.05,
                  limit_ms=1_000.0)
        first.takeover.take_over()
        env.run_until_idle()
        assert first.active and first.epoch == 3
        assert box["final"].value["outcome"] == "commit"
        assert not any(fabric.in_flight().values())
        fabric.assert_atomic()
        return fabric, key

    def test_a_prepare_job_outlived_by_a_deposition_sends_nothing(self):
        """The job finds the transaction gone (deactivation dropped it)
        and sends nothing; the client's retry carries it through."""
        fabric, key = self._deposed_and_back()
        first = fabric.coordinators[0]
        assert first.txns_started == 2 and fabric.manager.retries == 1
        owners = [fabric.participants[name] for name in fabric.owners_of(key)]
        assert all(owner.votes_yes == 1 for owner in owners)

    def test_a_stale_prepare_job_leaves_the_retry_alone(self, monkeypatch):
        """The client's retry begins the transaction again while the old
        job still waits: served, the old job finds another record in
        flight and sends nothing.  Every owner votes yes once, and no
        prepare timeout outlives the commit."""
        fired = []
        on_timeout = TwoPhaseCommitCoordinator._on_prepare_timeout

        def recording(coordinator, state):
            fired.append(state)
            on_timeout(coordinator, state)

        monkeypatch.setattr(TwoPhaseCommitCoordinator, "_on_prepare_timeout",
                            recording)
        fabric, key = self._deposed_and_back(client_timeout_ms=10.0)
        first = fabric.coordinators[0]
        owners = [fabric.participants[name] for name in fabric.owners_of(key)]
        assert first.txns_started == 2 and fabric.manager.retries == 3
        assert [owner.votes_yes for owner in owners] == [1, 1, 1]
        assert (first.commits, first.prepare_timeouts) == (1, 0)
        assert fired == []

    def test_queued_commit_is_fenced_when_served(self):
        fabric = self._take_over_with_work_queued(
            lambda old, fabric: old.commits == 1, commit_service_ms=50.0)

        # The successor read PREPARED everywhere and presumed abort; a
        # commit served after its probe would contradict it.
        report = fabric.audit()
        assert report["partial_commits"] == 0
        assert report["acked_abort_committed"] == 0
        assert all(p.commits_applied == 0
                   for p in fabric.participants.values())
        assert sum(p.stale_epoch_rejections
                   for p in fabric.participants.values()) >= 1
        fabric.assert_atomic()

    def test_queued_prepare_is_fenced_when_served(self):
        def prepares_sent(old, fabric):
            return all(fabric.built.env.network.link_stats(
                old.name, name).messages for name in fabric.participants)

        # No client retry: nothing re-drives the transaction, so a lock the
        # successor never learned of would stay held.
        fabric = self._take_over_with_work_queued(
            prepares_sent, prepare_service_ms=50.0, client_timeout_ms=0.0)

        assert fabric.coordinators[1].takeover.round.in_doubt == {}
        assert all(not p.locks and not p.in_doubt_txns()
                   and p.votes_yes + p.votes_no == 0
                   for p in fabric.participants.values())
        assert sum(p.stale_epoch_rejections
                   for p in fabric.participants.values()) == 3
        fabric.assert_atomic()
