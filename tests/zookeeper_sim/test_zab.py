"""Tests for the Zab proposal tracker and commit log."""

import pytest
from hypothesis import given, strategies as st

from repro.zookeeper_sim.zab import CommitLog, ProposalTracker, Transaction


def _txn(zxid, op="create", path="/q/item-"):
    return Transaction(zxid=zxid, op=op, path=path, origin_server="s1",
                       origin_request=zxid)


class TestProposalTracker:
    def test_zxids_monotonic(self):
        tracker = ProposalTracker(3)
        assert [tracker.next_zxid() for _ in range(4)] == [1, 2, 3, 4]

    def test_quorum_size(self):
        assert ProposalTracker(3).quorum_size == 2
        assert ProposalTracker(5).quorum_size == 3
        assert ProposalTracker(1).quorum_size == 1

    def test_commit_exactly_at_quorum(self):
        tracker = ProposalTracker(3)
        tracker.track(_txn(1))
        assert not tracker.record_ack(1, "leader")
        assert tracker.record_ack(1, "f1")          # reaches 2 of 3
        assert not tracker.record_ack(1, "f2")      # already committed

    def test_duplicate_acks_not_double_counted(self):
        tracker = ProposalTracker(3)
        tracker.track(_txn(1))
        assert not tracker.record_ack(1, "leader")
        assert not tracker.record_ack(1, "leader")
        assert tracker.record_ack(1, "f1")

    def test_ack_for_unknown_zxid_ignored(self):
        tracker = ProposalTracker(3)
        assert not tracker.record_ack(99, "f1")

    def test_duplicate_track_rejected(self):
        tracker = ProposalTracker(3)
        tracker.track(_txn(1))
        with pytest.raises(ValueError):
            tracker.track(_txn(1))

    def test_pending_count_and_forget(self):
        tracker = ProposalTracker(3)
        tracker.track(_txn(1))
        tracker.track(_txn(2))
        assert tracker.pending_count() == 2
        tracker.record_ack(1, "a")
        tracker.record_ack(1, "b")
        assert tracker.pending_count() == 1
        tracker.forget(1)
        assert list(tracker._proposals) == [2]
        assert tracker.pending_transactions() == [_txn(2)]

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            ProposalTracker(0)


class TestCommitLog:
    def test_applies_in_zxid_order(self):
        log = CommitLog()
        log.learn(_txn(1))
        log.learn(_txn(2))
        log.mark_committed(2)
        assert log.ready_transactions() == []       # 1 not yet committed
        log.mark_committed(1)
        ready = log.ready_transactions()
        assert [t.zxid for t in ready] == [1, 2]
        assert log.last_applied == 2

    def test_commit_before_learn_waits_for_proposal(self):
        log = CommitLog()
        log.mark_committed(1)
        assert log.ready_transactions() == []
        log.learn(_txn(1))
        assert [t.zxid for t in log.ready_transactions()] == [1]

    def test_discard_drops_a_commit_that_arrived_before_its_proposal(self):
        """A new epoch's discard forgets a commit whose proposal never
        came, so a proposal of that zxid under the new epoch waits for its
        own commit."""
        log = CommitLog()
        log.learn(_txn(1))
        log.commit(1)
        log.learn(_txn(2))
        log.mark_committed(3)
        log.discard_uncommitted()
        assert (log.last_applied, log._known, log._committed) == (1, {}, set())
        log.learn(_txn(2))
        log.learn(_txn(3))
        assert list(log.commit(2)) == [_txn(2)]
        assert log.ready_transactions() == []

    def test_no_double_apply(self):
        log = CommitLog()
        log.learn(_txn(1))
        log.mark_committed(1)
        assert len(log.ready_transactions()) == 1
        assert log.ready_transactions() == []


@given(st.permutations(list(range(1, 9))))
def test_commit_log_total_order_is_independent_of_commit_order(order):
    """Whatever order commits arrive in, application follows zxid order."""
    log = CommitLog()
    for zxid in range(1, 9):
        log.learn(_txn(zxid))
    applied = []
    for zxid in order:
        log.mark_committed(zxid)
        applied.extend(t.zxid for t in log.ready_transactions())
    assert applied == list(range(1, 9))


@given(st.permutations(list(range(1, 9))),
       st.lists(st.integers(min_value=0, max_value=8), min_size=8, max_size=8))
def test_commit_is_mark_committed_then_ready_transactions(order, learn_after):
    """``commit`` — the servers' one call per commit — leaves the log and
    hands out the transactions exactly as the two steps would, whether the
    commit finds its proposal learned, not yet learned, or others waiting."""
    one, two = CommitLog(), CommitLog()
    learned = set()
    for step, zxid in enumerate(order):
        # Learn some proposals before their commit, the rest after.
        for late in range(1, 9):
            if late not in learned and learn_after[late - 1] <= step:
                learned.add(late)
                one.learn(_txn(late))
                two.learn(_txn(late))
        two.mark_committed(zxid)
        assert list(one.commit(zxid)) == two.ready_transactions()
        assert (one.last_applied, one._known, one._committed) \
            == (two.last_applied, two._known, two._committed)
