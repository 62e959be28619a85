"""Every guard of the 2PC control plane, each made to fire by name.

Small fabrics with heartbeats off, so a run drains: a takeover is started
by hand (``takeover.take_over()``, what a standby's heartbeat tick does
once the active coordinator went quiet) and every other hop travels the
network as it would in a run.  Where a guard only fires on a hop that a schedule
makes rare (a heartbeat from a deposed epoch, a probe overtaken by a newer
one, a takeover reply about a transaction decided meanwhile), the test
sends that hop itself with ``_send_control``, the control plane's one
send, delivers it with ``_receive_control``, the one delivery step, while
the real replies are still on the wire, or serves the participant's
queued job itself.
"""

import pytest

from repro.sim.environment import SimEnvironment
from repro.sim.topology import Region
from repro.txn import ABORT, COMMIT, TwoPhaseCommitCoordinator, TxnState
from repro.txn.config import TAKEOVER_PROBE_MS
from repro.txn.log import TxnLogRecord
from txn_helpers import make_fabric, no_failover_config


def _committed(fabric):
    """One single-key transaction committed everywhere: its id, and the
    participants that own its key."""
    key = fabric.built.dataset.keys()[0]
    fabric.manager.execute({key: "v"})
    fabric.built.env.run_until_idle()
    (txn_id,) = fabric.manager.acked_commits
    return txn_id, [fabric.participants[name]
                    for name in fabric.owners_of(key)]


def _taken_over(fabric):
    """The standby takes over from a live active coordinator (epoch 2) and
    the takeover drains: the old one is deposed by the heartbeat."""
    old, successor = fabric.coordinators
    successor.takeover.take_over()
    fabric.built.env.run_until_idle()
    assert successor.active and successor.epoch == 2
    return old, successor


def _heartbeat(env, sender, receiver, epoch):
    sender._send_control(64, receiver, receiver.takeover.heartbeat,
                         sender.name, epoch)
    env.run_until_idle()


class TestCoordinator:
    def test_a_heartbeat_from_an_older_epoch_is_ignored(self):
        fabric = make_fabric()
        env = fabric.built.env
        old, successor = _taken_over(fabric)
        watch = old.takeover
        assert watch.known_epoch == 2 and watch.active_name == successor.name
        heard = watch.last_heard_ms
        env.run(until=env.now() + 10.0)
        _heartbeat(env, successor, old, 1)
        assert watch.known_epoch == 2 and watch.active_name == successor.name
        assert watch.last_heard_ms == heard

    def test_a_heartbeat_from_a_higher_epoch_deactivates_the_active(self):
        fabric = make_fabric()
        env = fabric.built.env
        first, second = fabric.coordinators
        assert first.active and first.epoch == 1
        _heartbeat(env, second, first, 3)
        watch = first.takeover
        assert not first.active and not watch.recovering
        assert watch.known_epoch == 3 and watch.active_name == second.name
        assert watch.last_heard_ms == env.now()

    def test_a_takeover_with_no_participant_to_probe_completes_at_once(self):
        env = SimEnvironment(seed=1)
        alone = TwoPhaseCommitCoordinator(
            "c", Region.IRL, env.network, no_failover_config(), 0, ["c"], [],
            lambda key: ())
        alone.takeover.take_over()
        assert alone.active and alone.epoch == 2
        assert not alone.takeover.recovering
        assert alone.takeover.time_to_recover_ms() == 0.0
        env.run_until_idle()  # the probe tick finds nothing to re-probe
        assert env.network.messages_sent == 0

    def test_a_participant_down_at_takeover_is_probed_until_it_answers(
            self):
        fabric = make_fabric()
        env = fabric.built.env
        _, successor = fabric.coordinators
        down = fabric.participants[sorted(fabric.participants)[0]]
        down.crash()
        successor.takeover.take_over()
        probes = env.network.link_stats(successor.name, down.name).messages
        env.run(until=env.now() + 2.5 * TAKEOVER_PROBE_MS)
        assert successor.takeover.recovering
        assert successor.takeover.round.pending == {down.name}
        assert env.network.link_stats(successor.name, down.name).messages \
            == probes + 2
        down.recover()
        env.run_until_idle()
        assert not successor.takeover.recovering
        assert successor.takeover.round.pending == set()
        assert down.epoch == successor.epoch

    @pytest.mark.parametrize("receiver", ["deposed", "successor"])
    def test_a_vote_of_the_old_epoch_is_dropped(self, receiver):
        """A yes vote for the deposed coordinator's epoch-1 prepare, at the
        deposed coordinator or at its successor (epoch 2)."""
        fabric = make_fabric()
        env = fabric.built.env
        txn_id, (owner, *_) = _committed(fabric)
        old, successor = _taken_over(fabric)
        node = old if receiver == "deposed" else successor
        node.in_flight[txn_id] = "not to be touched"
        env.network.fused_send_to(owner, node.name, 64, node._txn_vote,
                                  (txn_id, owner.name, 1, True))
        env.run_until_idle()
        assert node.in_flight == {txn_id: "not to be touched"}

    def test_a_takeover_reply_for_another_epoch_is_not_merged(self):
        fabric = make_fabric()
        env = fabric.built.env
        txn_id, (owner, *_) = _committed(fabric)
        _, successor = fabric.coordinators
        successor.takeover.take_over()  # epoch 2, probes in flight
        successor._receive_control(successor.takeover.reply,
                                   (owner.name, 1, owner.log.snapshot()))
        assert successor.active and successor.takeover.recovering
        assert owner.name in successor.takeover.round.pending
        assert owner.name not in successor.takeover.round.replied
        assert txn_id not in successor.decided
        env.run_until_idle()  # the real replies, at epoch 2
        assert successor.decided[txn_id][0] == COMMIT
        assert not successor.takeover.recovering

    def test_a_takeover_reply_from_a_higher_epoch_deposes_the_successor(self):
        fabric = make_fabric()
        env = fabric.built.env
        owner = next(iter(fabric.participants.values()))
        _, successor = fabric.coordinators
        successor.takeover.take_over()
        successor._receive_control(successor.takeover.reply,
                                   (owner.name, 5, []))
        assert not successor.active and not successor.takeover.recovering
        env.run_until_idle()  # the epoch-2 replies find it deposed
        assert not successor.active
        assert successor.takeover.round.replied == set()
        assert successor.takeover.time_to_recover_ms() is None

    def test_recover_rejoins_as_a_standby_with_nothing_volatile(self):
        fabric = make_fabric()
        env = fabric.built.env
        txn_id, _ = _committed(fabric)
        first = fabric.coordinators[0]
        assert first.active and txn_id in first.decided
        first.crash()
        first.recover()
        assert first.alive and not first.active
        assert not first.takeover.recovering
        assert first.decided == {} and first.in_flight == {}
        assert first._deliveries == {} and first.takeover.round is None
        assert first.takeover.last_heard_ms == env.now()

    def test_a_prepared_record_of_a_decided_txn_redelivers_the_decision(
            self):
        fabric = make_fabric()
        env = fabric.built.env
        txn_id, owners = _committed(fabric)
        _, successor = _taken_over(fabric)
        assert successor.decided[txn_id][0] == COMMIT
        # A reply that still shows the transaction prepared: the outcome is
        # known, so it is re-driven at once, never held in doubt.
        prepared = TxnLogRecord(txn_id, TxnState.PREPARED, {},
                                tuple(p.name for p in owners), "")
        in_doubt_when_resolved = []
        takeover = successor.takeover
        resolve = takeover._resolve_in_doubt

        def recording():
            in_doubt_when_resolved.append(set(takeover.round.in_doubt))
            resolve()

        takeover._resolve_in_doubt = recording
        takeover.round.completed_ms = None  # the takeover still open
        sent = [env.network.link_stats(successor.name, p.name).messages
                for p in owners]
        successor._receive_control(
            successor.takeover.reply,
            (owners[0].name, successor.epoch, [prepared]))
        assert in_doubt_when_resolved == [set()]
        assert [env.network.link_stats(successor.name, p.name).messages
                for p in owners] == [count + 1 for count in sent]
        env.run_until_idle()
        assert successor._deliveries == {}
        assert not successor.takeover.recovering
        assert all(owner.log.state(txn_id) == TxnState.COMMITTED
                   for owner in owners)

    def test_an_in_doubt_txn_decided_meanwhile_takes_that_outcome(self):
        """A transaction in doubt, then decided while replies are still
        outstanding (a prepare timeout of the same id begun again here):
        the next reply resolves it with that outcome, not a presumed abort
        counted once every participant answered."""
        fabric = make_fabric()
        env = fabric.built.env
        _, successor = fabric.coordinators
        names = tuple(sorted(fabric.participants))
        successor.takeover.take_over()
        successor.takeover.round.in_doubt["ghost:1"] = TxnLogRecord(
            "ghost:1", TxnState.PREPARED, {}, names, "")
        successor.decided["ghost:1"] = (ABORT, None)
        aborts = successor.aborts
        env.run_until_idle()
        assert successor.takeover.round.in_doubt == {}
        assert not successor.takeover.recovering
        assert successor.aborts == aborts
        assert all(fabric.participants[name].log.state("ghost:1")
                   == TxnState.ABORTED for name in names)
        fabric.assert_atomic()


class TestParticipant:
    def test_a_probe_from_an_older_epoch_gets_no_reply(self):
        fabric = make_fabric()
        env = fabric.built.env
        old, successor = _taken_over(fabric)
        owner = next(iter(fabric.participants.values()))
        assert owner.epoch == 2
        replies, stale = owner.takeover_replies, owner.stale_epoch_rejections
        old._send_control(64, owner, owner.takeover_probe, old, 1)
        env.run_until_idle()
        assert owner.epoch == 2
        assert owner.takeover_replies == replies
        assert owner.stale_epoch_rejections == stale + 1

    def test_a_re_prepare_of_a_committed_txn_re_acks_the_commit(self):
        fabric = make_fabric()
        env = fabric.built.env
        txn_id, (owner, *_) = _committed(fabric)
        first = fabric.coordinators[0]
        acks = []
        first._txn_ack = lambda *args: acks.append(args)
        votes = owner.votes_yes + owner.votes_no
        request = _request(owner, txn_id)
        owner._handle_prepare(first, first.epoch, request)
        env.run_until_idle()
        assert acks == [(txn_id, owner.name, True)]
        assert owner.votes_yes + owner.votes_no == votes

    def test_a_re_prepare_of_a_prepared_txn_votes_yes_again(self):
        fabric = make_fabric()
        env = fabric.built.env
        txn_id, (owner, *_) = _committed(fabric)
        first = fabric.coordinators[0]
        owner.log.get(txn_id).state = TxnState.PREPARED
        appends = owner.log.appends
        votes = []
        first._txn_vote = lambda *args: votes.append(args)
        owner._handle_prepare(first, first.epoch, _request(owner, txn_id))
        env.run_until_idle()
        assert votes == [(txn_id, owner.name, owner.epoch, True)]
        assert owner.log.state(txn_id) == TxnState.PREPARED
        assert owner.log.appends == appends and owner.locks == {}

    def test_an_abort_over_a_commit_re_acks_the_commit(self):
        fabric = make_fabric()
        env = fabric.built.env
        txn_id, (owner, *_) = _committed(fabric)
        first = fabric.coordinators[0]
        acks = []
        first._txn_ack = lambda *args: acks.append(args)
        aborts = owner.aborts_logged
        owner._handle_abort(first, first.epoch, txn_id)
        env.run_until_idle()
        assert acks == [(txn_id, owner.name, True)]
        assert owner.log.state(txn_id) == TxnState.COMMITTED
        assert owner.aborts_logged == aborts
        assert ABORT not in {outcome for outcome, _ in
                             first.decided.values()}


def _request(owner, txn_id):
    """The prepare request of ``txn_id`` as ``owner`` logged it."""
    from repro.txn.coordinator import InFlightTxn
    from repro.txn.manager import TxnOp

    record = owner.log.get(txn_id)
    op = TxnOp(txn_id, dict(record.writes), record.client, float("inf"),
               170, None, 0.0)
    return InFlightTxn(op, record.participants, {owner.name: record.writes})
