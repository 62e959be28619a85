"""The Zab write path's host-cost contract: a dequeue costs the same at any
queue depth, one immutable transaction record serves every server, and the
leader forgets a proposal once it commits.  The ``sorted``-based semantics
the servers used to compute live on here as the oracle."""

import time

import pytest
from history import RecordingSink
from hypothesis import example, given, settings, strategies as st

from repro.sim.environment import SimEnvironment
from repro.sim.topology import Region, Topology
from repro.zookeeper_sim.cluster import ZooKeeperCluster
from repro.zookeeper_sim.datatree import NoNodeError
from repro.zookeeper_sim.zab import ProposalTracker, Transaction


def _cluster(queues=(), depth=0, seed=3):
    env = SimEnvironment(seed=seed, topology=Topology(jitter_fraction=0.0))
    cluster = ZooKeeperCluster(env)
    for queue in queues:
        cluster.preload_queue(queue, [f"{queue}-{i}" for i in range(depth)])
    return env, cluster


# -- (2) simulation overlay against the old list-comprehension code ---------

class _ReferenceOverlay:
    """``_simulate`` / ``_apply`` for dequeue and delete as they were
    written before the ordered child list: sort, filter, index."""

    def __init__(self, tree):
        self.tree = tree
        self.removed = set()

    def _children(self, path):
        try:
            return sorted(self.tree.get_children(path))
        except NoNodeError:
            return []

    def simulate_dequeue(self, path):
        available = [c for c in self._children(path)
                     if f"{path}/{c}" not in self.removed]
        if not available:
            return {"item": None, "name": None, "remaining": 0}
        head = available[0]
        self.removed.add(f"{path}/{head}")
        return {"item": self.tree.get(f"{path}/{head}"), "name": head,
                "remaining": len(available) - 1}

    def simulate_delete(self, path):
        self.removed.add(path)
        return {"deleted": path}

    def apply_dequeue(self, path):
        # A committed dequeue from a deleted queue fails (NoNodeError).
        children = sorted(self.tree.get_children(path))
        if not children:
            return {"item": None, "name": None, "remaining": 0}
        head = children[0]
        data = self.tree.get(f"{path}/{head}")
        self.tree.delete(f"{path}/{head}")
        self.removed.discard(f"{path}/{head}")
        return {"item": data, "name": head, "remaining": len(children) - 1}


def _answer(server, txn):
    """Apply ``txn`` at ``server`` as the origin of its request, and return
    what the server answers the client: ``{"ok": True, "result": ...}`` or
    ``{"ok": False, "error": ...}``."""
    answers = []
    server._respond = lambda op, ok, result=None, error=None: answers.append(
        {"ok": True, "result": result} if ok else {"ok": False, "error": error})
    try:
        server._apply(txn, origin=object())
    finally:
        del server._respond
    (answer,) = answers
    return answer


def _children_or_absent(tree, path):
    """``path``'s children, or None once the queue itself was deleted."""
    try:
        return tree.get_children(path)
    except NoNodeError:
        return None


_QUEUES = st.sampled_from(["/a", "/b"])
_PATHS = st.sampled_from(
    ["/a/item-0000000001", "/a/item-0000000004", "/b/item-0000000000",
     "/a/ghost", "/a/item-0000000002/below", "/ab/item-0000000001", "/a",
     "/missing/item-0000000000"])
_STEPS = st.one_of(
    st.tuples(st.just("simulate-dequeue"),
              st.sampled_from(["/a", "/b", "/missing"])),
    st.tuples(st.just("simulate-delete"), _PATHS),
    st.tuples(st.just("commit-dequeue"), _QUEUES),
    st.tuples(st.just("commit-enqueue"), _QUEUES),
    st.tuples(st.just("commit-delete"), _PATHS),
)


@settings(deadline=None)
@given(st.lists(_STEPS, max_size=60))
# Drain a queue, delete it, then enqueue into and dequeue from it: the
# deleted queue is absent everywhere and stays so.
@example([("commit-dequeue", "/a")] * 6 + [("commit-delete", "/a")])
@example([("commit-dequeue", "/a")] * 6
         + [("commit-delete", "/a"), ("commit-enqueue", "/a"),
            ("commit-dequeue", "/a"), ("simulate-dequeue", "/a")])
def test_simulation_overlay_matches_the_sorted_reference(steps):
    _, cluster = _cluster(queues=("/a", "/b"), depth=6)
    server = cluster.followers[0]
    # A non-origin server applies the same log without building answers.
    silent = cluster.followers[1]
    _, twin = _cluster(queues=("/a", "/b"), depth=6)
    reference = _ReferenceOverlay(twin.followers[0].tree)
    for zxid, (kind, path) in enumerate(steps, start=1):
        if kind == "simulate-dequeue":
            assert server._simulate("dequeue", path) \
                == reference.simulate_dequeue(path)
            silent._simulate("dequeue", path)
        elif kind == "simulate-delete":
            assert server._simulate("delete", path) \
                == reference.simulate_delete(path)
            silent._simulate("delete", path)
        elif kind == "commit-dequeue":
            applied = _answer(server, Transaction(zxid, "dequeue", path))
            try:
                expected = {"ok": True,
                            "result": reference.apply_dequeue(path)}
            except NoNodeError as exc:
                expected = {"ok": False,
                            "error": f"{type(exc).__name__}: {exc}"}
            assert applied == expected
            silent._apply(Transaction(zxid, "dequeue", path))
        elif kind == "commit-enqueue":
            txn = Transaction(zxid, "create", f"{path}/item-", data=zxid,
                              sequential=True)
            applied = _answer(server, txn)
            silent._apply(txn)
            try:
                created = reference.tree.create(txn.path, txn.data,
                                                sequential=True)
                assert applied["result"]["path"] == created
            except NoNodeError as exc:
                # Into a deleted queue: the origin reports the failure.
                assert applied == {
                    "ok": False, "error": f"{type(exc).__name__}: {exc}"}
        else:
            applied = _answer(server, Transaction(zxid, "delete", path))
            silent._apply(Transaction(zxid, "delete", path))
            try:
                reference.tree.delete(path)
                reference.removed.discard(path)
                assert applied["ok"]
            except (NoNodeError, ValueError) as exc:
                assert applied == {
                    "ok": False, "error": f"{type(exc).__name__}: {exc}"}
        assert server._simulated_removed == reference.removed
        assert silent._simulated_removed == reference.removed
        for queue in ("/a", "/b"):
            expected = _children_or_absent(reference.tree, queue)
            assert _children_or_absent(server.tree, queue) \
                == _children_or_absent(silent.tree, queue) \
                == (None if expected is None else sorted(expected))


# -- (3) depth independence ------------------------------------------------------

class _CountedList(list):
    """A child-order list that counts the elements each operation touches
    (an index reads one; iterating, sorting, searching, copying or deleting
    from the front touch — or shift — all of them)."""

    touched = 0

    def __getitem__(self, index):
        self.touched += (len(range(*index.indices(len(self))))
                         if isinstance(index, slice) else 1)
        return list.__getitem__(self, index)


class _CountedDict(dict):
    """A children map that counts the entries a scan visits; lookups,
    deletions and ``len`` are free."""

    touched = 0


def _touching_everything(base, name):
    def method(self, *args, **kwargs):
        self.touched += len(self)
        return getattr(base, name)(self, *args, **kwargs)
    return method


for _name in ("__iter__", "__contains__", "__delitem__", "__reversed__",
              "sort", "index", "count", "copy", "insert", "remove"):
    setattr(_CountedList, _name, _touching_everything(list, _name))
for _name in ("__iter__", "keys", "values", "items", "copy"):
    setattr(_CountedDict, _name, _touching_everything(dict, _name))


def _entries_touched_by_dequeues(depth, dequeues):
    """How many entries of the queue znode's child order and child map
    ``dequeues`` applied dequeues touch, starting ``depth`` deep."""
    _, cluster = _cluster(queues=("/q",), depth=depth)
    server = cluster.leader
    queue = server.tree._lookup("/q")
    queue.order = order = _CountedList(queue.order)
    queue.children = children = _CountedDict(queue.children)
    for zxid in range(1, dequeues + 1):
        applied = _answer(server, Transaction(zxid, "dequeue", "/q"))
        assert applied["result"]["name"] == f"item-{zxid - 1:010d}"
    touched = order.touched + children.touched
    assert server.tree.child_count("/q") == depth - dequeues
    assert sorted(children) == list.__getitem__(order, slice(queue.head, None))
    return touched


def test_dequeue_cost_does_not_grow_with_queue_depth():
    # An exact count, not a stopwatch: a dequeue reads the head of the
    # order list and unlinks it, whatever lies behind.  The sort-per-dequeue
    # code this replaced touched every child every time (``sorted`` iterates
    # the map): 2,000 dequeues of a 10,000-deep queue, 18 million entries.
    probe = _CountedDict(b=1, a=2)
    assert sorted(probe) == ["a", "b"] and probe.touched == 2
    shallow = _entries_touched_by_dequeues(200, 200)
    deep = _entries_touched_by_dequeues(10_000, 2_000)
    assert shallow <= 4 * 200      # head reads + the amortised compactions
    assert deep == 2 * 2_000       # pop_first_child's read and unlink's


def test_simulated_dequeue_cost_does_not_grow_with_queue_depth():
    def best_time(depth):
        _, cluster = _cluster(queues=("/q",), depth=depth)
        server = cluster.leader
        best = float("inf")
        for _ in range(5):
            server._simulated_removed.clear()
            started = time.perf_counter()
            for _ in range(100):
                server._simulate("dequeue", "/q")
            best = min(best, time.perf_counter() - started)
        return best

    # 100 in-flight simulations hide 100 heads; the rest of the queue is
    # never looked at.
    assert best_time(50_000) < 3 * best_time(200)


# -- (4) one shared, immutable transaction record ------------------------------------

class TestTransactionRecord:
    def test_immutable_and_value_equal(self):
        txn = Transaction(zxid=4, op="create", path="/q/item-", data="x",
                          sequential=True, origin_server="s1",
                          origin_request=9)
        with pytest.raises(AttributeError):
            txn.zxid = 5
        with pytest.raises(AttributeError):
            txn.extra = 1
        assert txn == Transaction(4, "create", "/q/item-", "x", True, "s1", 9)
        assert txn != txn._replace(zxid=5)
        assert Transaction(1, "dequeue", "/q") == Transaction(
            zxid=1, op="dequeue", path="/q", data=None, sequential=False,
            origin_server="", origin_request=0)

    def test_every_server_logs_the_leaders_record(self):
        env, cluster = _cluster(queues=("/queue",), depth=2)
        client = cluster.add_client("c", Region.FRK, Region.FRK)
        for i in range(5):
            client.submit_sink("enqueue", "/queue", RecordingSink(), f"x{i}")
        client.submit_sink("dequeue", "/queue", RecordingSink(), icg=True)
        env.run_until_idle()
        leader = cluster.leader
        assert len(leader.applied_log) == 6
        for follower in cluster.followers:
            assert follower.applied_log is not leader.applied_log
            assert len(follower.applied_log) == 6
            assert all(theirs is ours for theirs, ours
                       in zip(follower.applied_log, leader.applied_log))

    def test_snapshot_receiver_holds_no_alias_of_the_senders_state(self):
        env, cluster = _cluster(queues=("/queue",), depth=3)
        client = cluster.add_client("c", Region.IRL, Region.IRL)
        for i in range(4):
            client.submit_sink("enqueue", "/queue", RecordingSink(), f"x{i}")
        env.run_until_idle()
        leader, receiver = cluster.leader, cluster.followers[1]
        leader._send_snapshot(receiver)
        env.run_until_idle()
        assert receiver.snapshots_received == 1
        assert receiver.applied_log == leader.applied_log
        assert receiver.applied_log is not leader.applied_log
        assert isinstance(receiver.applied_log, list)
        # Whatever the sender does next stays the sender's.
        leader.applied_log.append(Transaction(99, "delete", "/queue"))
        leader.tree.create("/leader-only")
        leader.tree.pop_first_child("/queue")
        assert len(receiver.applied_log) == 4
        assert not receiver.tree.exists("/leader-only")
        assert receiver.tree.child_count("/queue") == 7
        assert receiver.tree.get_children("/queue") \
            == sorted(receiver.tree.get_children("/queue"))

    def test_sync_carries_the_shared_records(self):
        env, cluster = _cluster(queues=("/queue",), depth=1)
        behind = cluster.followers[1]
        env.network.partition(cluster.leader.name, behind.name)
        client = cluster.add_client("c", Region.IRL, Region.IRL)
        for i in range(3):
            client.submit_sink("enqueue", "/queue", RecordingSink(), f"x{i}")
        env.run_until_idle()
        assert behind.commit_log.last_applied == 0
        env.network.heal(cluster.leader.name, behind.name)
        behind._request_sync(behind.epoch)
        env.run_until_idle()
        assert cluster.leader.syncs_served == 1
        assert behind.applied_log == cluster.leader.applied_log
        assert behind.applied_log is not cluster.leader.applied_log
        assert behind.tree.get_children("/queue") \
            == cluster.leader.tree.get_children("/queue")


# -- (5) the leader forgets what it committed ---------------------------------------------

class TestProposalTrackerStaysSmall:
    def test_late_ack_after_forget_is_ignored(self):
        tracker = ProposalTracker(3)
        txn = Transaction(tracker.next_zxid(), "dequeue", "/q")
        tracker.track(txn)
        assert not tracker.record_ack(txn.zxid, "s1")
        assert tracker.record_ack(txn.zxid, "s2")
        tracker.forget(txn.zxid)
        assert not tracker.record_ack(txn.zxid, "s3")
        assert tracker.transaction(txn.zxid) is None
        assert tracker.pending_transactions() == []

    def test_tracker_is_bounded_by_the_in_flight_window(self):
        env, cluster = _cluster(queues=("/queue",), depth=0)
        tracker = cluster.leader.tracker
        client = cluster.add_client("c", Region.FRK, Region.FRK)
        window, total = 16, 5_000
        state = {"sent": 0, "done": 0, "peak": 0}

        def _issue():
            state["sent"] += 1
            client.submit_sink("enqueue", "/queue", RecordingSink(_answered),
                               state["sent"])

        def _answered(answer):
            assert answer.kind == "final"
            state["done"] += 1
            state["peak"] = max(state["peak"], len(tracker._proposals))
            if state["sent"] < total:
                _issue()

        for _ in range(window):
            _issue()
        env.run_until_idle()
        assert state["done"] == total
        assert state["peak"] <= window
        assert len(tracker._proposals) == 0
        # The third ack of every write arrived after the forget: nothing
        # was committed or applied twice.
        for server in cluster.servers:
            assert server.transactions_applied == total
            assert server.tree.child_count("/queue") == total

    def test_uncommitted_proposals_are_retransmitted_on_resync(self):
        env, cluster = _cluster(queues=("/queue",), depth=0)
        leader = cluster.leader
        for follower in cluster.followers:
            env.network.partition(leader.name, follower.name)
        client = cluster.add_client("c", Region.IRL, Region.IRL)
        answers = RecordingSink()
        for i in range(3):
            client.submit_sink("enqueue", "/queue", answers, f"x{i}")
        env.run_until_idle()
        # No quorum: proposed, never committed, so nothing was forgotten.
        assert answers.calls == []
        assert leader.tracker.pending_count() == 3
        assert [t.zxid for t in leader.tracker.pending_transactions()] \
            == [1, 2, 3]
        rejoining = cluster.followers[0]
        env.network.heal(leader.name, rejoining.name)
        rejoining._request_sync(rejoining.epoch)
        env.run_until_idle()
        assert answers.kinds() == ["final", "final", "final"]
        assert len(leader.tracker._proposals) == 0
        assert rejoining.commit_log.last_applied == 3
        assert all(theirs is ours for theirs, ours
                   in zip(rejoining.applied_log, leader.applied_log))
