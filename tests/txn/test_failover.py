"""Coordinator failover and participant-recovery tests.

Heartbeats stay on here, so the event queue never drains; every test
advances the clock with ``env.run(until=...)`` / ``run_until`` instead of
``run_until_idle``.
"""

from repro.txn import TxnConfig, TxnState
from txn_helpers import collect, make_fabric, run_until


class TestCoordinatorFailover:
    def test_standby_takes_over_and_the_stream_survives(self):
        fabric = make_fabric(config=TxnConfig(), record_count=60)
        manager = fabric.manager
        env = fabric.built.env
        keys = fabric.built.dataset.keys()
        first, second = fabric.coordinators

        # Open-loop stream of single-key transactions on distinct keys
        # (no lock conflicts): every one of them must resolve even though
        # the active coordinator dies mid-stream.
        count = 40
        for i in range(count):
            env.scheduler.schedule_at(
                i * 50.0, lambda i=i: manager.execute({keys[i]: f"v{i}"}))

        env.run(until=1_000.0)
        assert first.active and not second.active
        first.crash()
        env.scheduler.schedule_at(3_000.0, first.recover)
        env.run(until=30_000.0)

        assert fabric.total_takeovers() == 1
        assert second.active and second.epoch == 2
        # The deposed coordinator rejoined as a standby, not as a rival.
        assert first.alive and not first.active
        assert fabric.active_coordinator() is second

        committed = len(manager.acked_commits)
        aborted = len(manager.acked_aborts)
        assert manager.failed_requests == 0
        assert committed + aborted == count
        assert committed >= count - 2     # at most the crash-window stragglers
        # The client felt the failover: timeouts burned retries, and the
        # round-robin rotation bounced off the standby at least once.
        assert manager.retries > 0
        assert manager.redirects_followed > 0
        recover_ms = fabric.time_to_recover_ms()
        assert recover_ms is not None and recover_ms > 0.0
        fabric.assert_atomic()

    def test_with_three_coordinators_the_first_standby_takes_over(self):
        """Standby rank counts the standbys ahead in group order: the
        second standby waits a timeout longer and never takes over."""
        fabric = make_fabric(config=TxnConfig(), coordinator_count=3)
        env = fabric.built.env
        first, second, third = fabric.coordinators
        assert (second.takeover.rank, third.takeover.rank) == (0, 1)
        env.run(until=500.0)
        first.crash()
        env.run(until=5_000.0)
        assert second.active and second.epoch == 2
        assert (second.takeover.takeovers, third.takeover.takeovers) == (1, 0)
        assert not third.active and third.takeover.active_name == second.name
        # Ranks follow the new active: the deposed first is ahead of third.
        assert third.takeover.rank == 1

    def test_crash_in_decision_window_revokes_the_prepared_view(self):
        # A wide durable-decision window makes the race deterministic: the
        # client sees the speculative PREPARED view while the decision is
        # still volatile, the coordinator dies, and the successor — finding
        # prepared records but no commit record — must abort.  This is the
        # one case where the speculative view lies.
        fabric = make_fabric(config=TxnConfig(decision_log_ms=80.0))
        manager = fabric.manager
        env = fabric.built.env
        key = fabric.built.dataset.keys()[0]
        box = collect(manager.execute({key: "speculative"}))

        run_until(env, lambda: manager.stats.prepared_views == 1,
                  limit_ms=5_000.0)
        first = fabric.coordinators[0]
        txn_id = box["views"][0].value["txn_id"]
        assert txn_id in first.in_flight        # decision not yet durable
        first.crash()
        env.run(until=env.now() + 20_000.0)

        assert box["final"].value["outcome"] == "abort"
        assert manager.stats.prepared_views == 1
        assert manager.stats.matched == 0
        assert manager.stats.mismatched == 1
        assert manager.stats.accuracy() == 0.0
        assert fabric.total_takeovers() == 1
        for owner in fabric.owners_of(key):
            participant = fabric.participants[owner]
            record = participant.log.get(txn_id)
            assert record is not None and record.state == TxnState.ABORTED
            stored = participant.replica.table.get(key)
            assert stored is None or stored.value != "speculative"
        fabric.assert_atomic()


class TestParticipantRecovery:
    def test_commit_decision_is_redelivered_after_restart(self):
        fabric = make_fabric(config=TxnConfig())
        manager = fabric.manager
        env = fabric.built.env
        key = fabric.built.dataset.keys()[0]
        target = fabric.participants[fabric.owners_of(key)[0]]
        box = collect(manager.execute({key: "durable"}))

        # Crash one owner right after it voted yes: its vote counts, the
        # commit goes ahead on the surviving owners, and the client is
        # acked — the crashed owner now owes an application it cannot have
        # seen.
        run_until(env, lambda: target.votes_yes >= 1, step_ms=0.5,
                  limit_ms=2_000.0)
        target.crash()
        run_until(env, lambda: box["final"] is not None, limit_ms=10_000.0)
        assert box["final"].value["outcome"] == "commit"
        assert target.commits_applied == 0

        target.recover()
        env.run(until=env.now() + 5_000.0)

        txn_id = box["final"].value["txn_id"]
        coordinator = fabric.active_coordinator()
        # The periodic decision-retry tick redelivered the commit to the
        # restarted participant, which applied it and released its locks.
        assert coordinator.decision_redeliveries > 0
        assert target.commits_applied == 1
        assert target.log.get(txn_id).state == TxnState.COMMITTED
        assert target.replica.table.get(key).value == "durable"
        assert not target.locks
        fabric.assert_atomic()
