"""Every guard of the ZooKeeper control plane, each made to fire by name.

Small three-server ensembles on a jitter-free topology, mostly with
heartbeats off so a run drains: an election is started by hand
(``election.start()``, what a follower's heartbeat tick does once the
leader went quiet) and every other hop travels the network as it would in
a run.  Where a guard only fires on a hop that a schedule makes rare (a
delayed announcement, a snapshot from a deposed leader), the test sends
that hop itself with ``_send_control``, the control plane's one send.
"""

import pytest
from history import RecordingSink

from repro.sim.environment import SimEnvironment
from repro.sim.topology import Region, Topology
from repro.zookeeper_sim.cluster import ZooKeeperCluster
from repro.zookeeper_sim.config import ZooKeeperConfig
from repro.zookeeper_sim.server import ZKServer


def _ensemble(config=None, follower_regions=(Region.FRK, Region.VRG)):
    env = SimEnvironment(seed=5, topology=Topology(jitter_fraction=0.0))
    cluster = ZooKeeperCluster(env, follower_regions=follower_regions,
                               config=config)
    cluster.preload_queue("/queue", [])
    return env, cluster


def _elected():
    """The leader crashes, the followers elect ``followers[1]`` (the higher
    name) for epoch 1, and the old leader comes back with failure
    detection off: a zombie that still believes it leads epoch 0."""
    env, cluster = _ensemble()
    old = cluster.leader
    old.crash()
    cluster.followers[0].election.start()
    env.run_until_idle()
    old.recover()
    env.run_until_idle()
    return env, cluster, old


@pytest.fixture
def adoptions(monkeypatch):
    """Every ``(server, leader, epoch)`` a server adopted, in order."""
    adopted = []
    adopt = ZKServer.follow

    def recording(self, leader, epoch):
        adopted.append((self.name, leader, epoch))
        adopt(self, leader, epoch)

    monkeypatch.setattr(ZKServer, "follow", recording)
    return adopted


class TestElection:
    def test_recover_with_detection_off_sends_nothing(self):
        env, cluster, old = _elected()
        sent = env.network.messages_sent
        old.crash()
        old.recover()
        env.run_until_idle()
        assert env.network.messages_sent == sent
        assert old.is_leader and old.epoch == 0

    def test_too_few_electors_abandon_the_round(self):
        env, cluster = _ensemble()
        lonely = cluster.followers[0]
        for server in cluster.servers:
            if server is not lonely:
                env.network.partition(lonely.name, server.name)
        lonely.election.start()
        env.run_until_idle()
        assert lonely.epoch == 0 and lonely.promotions == 0
        assert lonely.election.announced_epoch == 0
        assert lonely.election.candidates == {}
        # The abandoned round frees the epoch for a fresh one.
        lonely.election.start()
        assert lonely.elections_started == 2

    def test_a_crashed_candidate_does_not_conclude_and_its_rival_resets(self):
        env, cluster = _ensemble()
        starter, winner = cluster.followers
        starter.election.start()
        # The winner joins the round on the starter's announcement ...
        while winner.election.announced_epoch == 0:
            env.run(until=env.now() + 1.0)
        # ... and crashes before its window closes.
        winner.crash()
        env.run_until_idle()
        assert winner.epoch == 0 and winner.promotions == 0
        # The starter tallied the winner, waited for it to take over, then
        # reopened the epoch.
        assert starter.epoch == 0 and starter.promotions == 0
        assert starter.election.announced_epoch == 0
        assert starter.election.candidates == {}
        assert cluster.leader.is_leader

    def test_a_stale_candidacy_meets_a_leader_that_reasserts(
            self, adoptions):
        env, cluster, old = _elected()
        leader = cluster.followers[1]
        adoptions.clear()
        # The zombie suspects its own epoch and campaigns for epoch 1, which
        # is already led: the leader answers with itself, the other
        # follower ignores it, and the zombie follows.
        old.election.start()
        env.run_until_idle()
        assert adoptions == [(old.name, leader.name, 1)]
        # Its own window closed after it adopted: nothing to conclude.
        assert old.epoch == 1 and old.promotions == 0
        assert not old.is_leader and leader.is_leader


class TestLeaderAnnouncements:
    def test_a_ping_at_a_follower_is_redirected_to_the_leader(self):
        env, cluster = _ensemble(config=ZooKeeperConfig.fault_tolerant())
        lost, other = cluster.followers
        lost.become_follower(other.name, cluster.server_names())
        cluster.enable_failure_detection()
        env.run(until=cluster.config.heartbeat_interval_ms + 100.0)
        assert lost.leader_name == cluster.leader.name
        assert lost.elections_started == 0

    @pytest.mark.parametrize("sender", ["deposed", "current"])
    def test_a_stale_leader_info_is_ignored(self, adoptions, sender):
        """The deposed leader's info (epoch 0), or the current leader's
        announcement over again (epoch 1, what ``promote`` sent): nothing
        new to adopt."""
        env, cluster, old = _elected()
        follower, leader = cluster.followers
        adoptions.clear()
        (old if sender == "deposed" else leader).election.send_leader_info(follower)
        env.run_until_idle()
        assert adoptions == []
        assert follower.leader_name == leader.name and follower.epoch == 1

    def test_a_leader_info_naming_the_receiver_is_ignored(self, adoptions):
        env, cluster, _ = _elected()
        follower, leader = cluster.followers
        adoptions.clear()
        follower.election.send_leader_info(leader)
        env.run_until_idle()
        assert adoptions == []
        assert leader.is_leader and leader.epoch == 1


class TestSync:
    def test_a_sync_request_at_a_follower_retransmits_nothing(self):
        env, cluster = _ensemble()
        lost, other = cluster.followers
        client = cluster.add_client("c", Region.IRL, Region.IRL)
        # Two writes reach the leader and one follower only.
        env.network.partition(cluster.leader.name, lost.name)
        for i in range(2):
            client.submit_sink("enqueue", "/queue", RecordingSink(), f"x{i}")
        env.run_until_idle()
        env.network.heal(cluster.leader.name, lost.name)
        proposals = env.network.link_stats(other.name, lost.name).messages
        lost.become_follower(other.name, cluster.server_names())
        lost.request_sync(lost.epoch)
        env.run_until_idle()
        # The follower serves the diff from its own log; it leads nothing,
        # so nothing follows the sync.
        assert other.syncs_served == 1
        assert env.network.link_stats(other.name, lost.name).messages \
            == proposals + 1
        assert lost.tree.child_count("/queue") == 2

    def test_a_snapshot_from_a_deposed_leader_is_ignored(self):
        env, cluster, old = _elected()
        follower = cluster.followers[0]
        # The follower's catch-up after the election was one snapshot.
        assert follower.snapshots_received == 1
        old._send_snapshot(follower)
        env.run_until_idle()
        assert old.snapshots_served == 1
        assert follower.snapshots_received == 1 and follower.epoch == 1

    def test_a_snapshot_of_a_newer_epoch_adopts_its_leader(self):
        env, cluster, old = _elected()
        leader = cluster.followers[1]
        leader._send_snapshot(old)
        env.run_until_idle()
        assert old.snapshots_received == 1
        assert not old.is_leader and old.tracker is None
        assert old.leader_name == leader.name and old.epoch == 1
        assert old.election.announced_epoch == 1


class TestZabDrops:
    """A hop in flight to a server that crashes before it lands is counted
    as dropped, and the server does nothing with it."""

    def test_a_request_to_a_crashed_server_is_dropped(self):
        env, cluster = _ensemble()
        server = cluster.followers[0]
        client = cluster.add_client("c", Region.FRK, Region.FRK)
        sink = RecordingSink()
        client.submit_sink("enqueue", "/queue", sink, "x")
        server.crash()
        env.run_until_idle()
        assert env.network.messages_dropped == 1
        assert sink.calls == [] and server.queue.jobs_processed == 0

    def test_a_proposal_to_a_crashed_follower_is_dropped(self):
        env, cluster = _ensemble()
        leader, far = cluster.leader, cluster.followers[1]
        client = cluster.add_client("c", Region.IRL, Region.IRL)
        sink = RecordingSink()
        client.submit_sink("enqueue", "/queue", sink, "x")
        while leader.tracker.pending_count() == 0:
            env.run(until=env.now() + 0.1)
        far.crash()
        env.run_until_idle()
        # The proposal in flight, and the commit sent to a dead follower.
        assert env.network.messages_dropped == 2
        assert sink.kinds() == ["final"]
        assert far.queue.jobs_processed == 0

    def test_a_commit_to_a_crashed_follower_is_dropped(self):
        env, cluster = _ensemble()
        leader, near, far = cluster.servers
        client = cluster.add_client("c", Region.IRL, Region.IRL)
        client.submit_sink("enqueue", "/queue", RecordingSink(), "x")
        # The near follower's ack commits the write; the far follower
        # crashes with the commit on its way.
        while leader.transactions_applied == 0:
            env.run(until=env.now() + 0.1)
        far.crash()
        env.run_until_idle()
        assert near.transactions_applied == 1
        assert far.transactions_applied == 0
        assert env.network.messages_dropped >= 1

    def test_a_late_ack_reaches_a_deposed_leader(self):
        env, cluster = _ensemble()
        leader, near, far = cluster.servers
        client = cluster.add_client("c", Region.IRL, Region.IRL)
        client.submit_sink("enqueue", "/queue", RecordingSink(), "x")
        while leader.transactions_applied == 0:
            env.run(until=env.now() + 0.1)
        # The far follower's ack is still on the wire when the leader
        # steps down.
        leader.become_follower(near.name, cluster.server_names())
        env.run_until_idle()
        assert env.network.messages_delivered > 0
        assert leader.tracker is None and leader.transactions_applied == 1
        assert far.transactions_applied == 1


class TestWritePathEdges:
    def test_a_lone_leader_commits_on_its_own_ack(self):
        env, cluster = _ensemble(follower_regions=())
        client = cluster.add_client("c", Region.IRL, Region.IRL)
        sink = RecordingSink()
        client.submit_sink("enqueue", "/queue", sink, "x")
        env.run_until_idle()
        (final,) = sink.calls
        assert final.kind == "final" and final.value["position"] == 0
        assert env.network.messages_sent == 2  # the request and the answer

    def test_an_icg_create_previews_its_path(self):
        env, cluster = _ensemble()
        client = cluster.add_client("c", Region.FRK, Region.FRK)
        sink = RecordingSink()
        client.submit_sink("create", "/node", sink, "x", icg=True)
        env.run_until_idle()
        assert [(call.kind, call.value) for call in sink.calls] == [
            ("preliminary", {"path": "/node"}),
            # After ``/queue`` among the root's children.
            ("final", {"path": "/node", "name": "node", "position": 1})]

    def test_an_icg_enqueue_into_a_missing_queue(self):
        env, cluster = _ensemble()
        client = cluster.add_client("c", Region.FRK, Region.FRK)
        sink = RecordingSink()
        client.submit_sink("enqueue", "/missing", sink, "x", icg=True)
        env.run_until_idle()
        preliminary, error = sink.calls
        # The simulation sees an empty queue; the commit finds none.
        assert preliminary.kind == "preliminary"
        assert preliminary.value == {"name": "item-0000000000",
                                     "position": 0}
        assert error.kind == "error" and "NoNode" in error.error

    @pytest.mark.parametrize("op", ["set", "exists", "sync"])
    def test_an_unknown_operation_is_rejected(self, op):
        env, cluster = _ensemble()
        client = cluster.add_client("c", Region.FRK, Region.FRK)
        sink = RecordingSink()
        client.submit_sink(op, "/queue", sink, "x")
        env.run_until_idle()
        (error,) = sink.calls
        assert error.kind == "error"
        assert error.error == f"unknown operation {op!r}"
