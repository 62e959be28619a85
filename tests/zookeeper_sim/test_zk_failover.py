"""Tests for ZooKeeper failure detection, leader election, state sync, and
client session failover."""

import pytest
from history import RecordingSink

from repro.sim.environment import SimEnvironment
from repro.sim.topology import Region
from repro.zookeeper_sim.cluster import ZooKeeperCluster
from repro.zookeeper_sim.config import ZooKeeperConfig
from zk_slices import DRAINED, leader_crash, zombie_leader


def _build(seed=7, preload=10):
    env = SimEnvironment(seed=seed)
    cluster = ZooKeeperCluster(env, leader_region=Region.IRL,
                               follower_regions=(Region.FRK, Region.VRG),
                               config=ZooKeeperConfig.fault_tolerant())
    if preload:
        cluster.preload_queue("/queue", [f"item-{i}" for i in range(preload)])
    cluster.enable_failure_detection()
    return env, cluster


class TestLeaderElection:
    def test_followers_elect_a_new_leader_after_crash(self):
        env, cluster = _build()
        env.run(until=500.0)
        cluster.leader.crash()
        env.run(until=5_000.0)

        new_leader = cluster.current_leader()
        assert new_leader is not None
        assert new_leader.name != cluster.leader.name
        assert new_leader.epoch == 1
        assert new_leader.promotions == 1
        # Exactly one server promoted itself.
        assert sum(s.promotions for s in cluster.servers) == 1
        # The surviving follower adopted the new leader.
        other = [f for f in cluster.followers if f is not new_leader][0]
        assert other.leader_name == new_leader.name
        assert other.epoch == 1

    def test_election_prefers_most_up_to_date_follower(self):
        """The candidate with the higher last-applied zxid wins even when
        name ordering favours the other."""
        env, cluster = _build()
        env.run(until=200.0)
        # Let some transactions commit, then hold one follower back by
        # cutting it off while more commits happen.
        client = cluster.add_client("writer", Region.IRL,
                                    connect_region=Region.IRL)
        behind = cluster.followers[1]   # wins name tie-breaks otherwise
        ahead = cluster.followers[0]
        for _ in range(3):
            client.submit_sink("enqueue", "/queue", RecordingSink(), "x")
        env.run(until=1_000.0)
        env.network.partition(cluster.leader.name, behind.name)
        for _ in range(3):
            client.submit_sink("enqueue", "/queue", RecordingSink(), "y")
        env.run(until=1_800.0)
        assert ahead.commit_log.last_applied > behind.commit_log.last_applied

        env.network.heal(cluster.leader.name, behind.name)
        cluster.leader.crash()
        env.run(until=8_000.0)
        new_leader = cluster.current_leader()
        assert new_leader is ahead

    def test_no_election_without_failure_detection(self):
        env = SimEnvironment(seed=7)
        cluster = ZooKeeperCluster(env, config=ZooKeeperConfig())  # defaults
        cluster.enable_failure_detection()  # no-op: heartbeats disabled
        cluster.leader.crash()
        env.run(until=10_000.0)
        assert cluster.current_leader() is None
        assert all(s.elections_started == 0 for s in cluster.servers)


class TestSessionsFailOver:
    def test_client_request_completes_through_new_leader(self):
        env, cluster = _build()
        client = cluster.add_client("app", Region.FRK,
                                    connect_region=Region.FRK, failover=True)
        env.run(until=500.0)
        cluster.leader.crash()
        env.run(until=5_000.0)

        sink = RecordingSink()
        client.submit_sink("dequeue", "/queue", sink)
        env.run(until=12_000.0)
        (final,) = sink.calls
        assert final.kind == "final" and final.value["item"] == "item-0"

    def test_client_fails_over_when_its_server_crashes(self):
        env, cluster = _build()
        follower = cluster.followers[0]
        client = cluster.add_client("app", Region.FRK,
                                    connect_region=Region.FRK, failover=True)
        assert client.server == follower.name
        env.run(until=300.0)
        follower.crash()

        sink = RecordingSink()
        client.submit_sink("get_children", "/queue", sink)
        env.run(until=10_000.0)
        (final,) = sink.calls
        assert final.kind == "final" and len(final.value) == 10
        assert client.retries >= 1
        assert client.failed_requests == 0

    def test_in_flight_write_survives_leader_crash_via_retry(self):
        """A write forwarded to a leader that dies before committing is
        re-issued (client timeout) and commits under the new leader."""
        env, cluster = _build()
        client = cluster.add_client("app", Region.FRK,
                                    connect_region=Region.FRK, failover=True)
        env.run(until=500.0)
        sink = RecordingSink()
        client.submit_sink("enqueue", "/queue", sink, "precious")
        # Crash the leader immediately: the forward is still in flight.
        cluster.leader.crash()
        env.run(until=20_000.0)

        assert sink.kinds() == ["final"]
        new_leader = cluster.current_leader()
        children = new_leader.tree.get_children("/queue")
        items = [new_leader.tree.get(f"/queue/{c}") for c in children]
        assert "precious" in items


class TestCommitProgressUnderLoad:
    def test_no_commit_stall_after_election_under_steady_load(self):
        """Regression: a leader crash with in-flight proposals must not
        leave a zxid gap (or lost proposals from the adoption window) that
        stalls the new epoch's commit log forever."""
        env, cluster = _build(preload=0)
        cluster.preload_queue("/queue", [])  # create the (empty) queue node
        clients = [cluster.add_client(f"c{i}", region, connect_region=region,
                                      failover=True)
                   for i, region in enumerate(
                       (Region.IRL, Region.FRK, Region.VRG))]
        outcomes = {"final": 0, "error": 0}

        def record(answer):
            outcomes[answer.kind] += 1

        counter = {"n": 0}

        def tick():
            for client in clients:
                counter["n"] += 1
                client.submit_sink("enqueue", "/queue", RecordingSink(record),
                                   f"v{counter['n']}")
            if env.now() < 10_000.0:
                env.scheduler.schedule(100.0, tick)

        env.scheduler.schedule(0.0, tick)
        env.scheduler.schedule(3_000.0, cluster.leader.crash)
        env.run(until=40_000.0)

        # Every in-flight and subsequent write committed (orphan proposals
        # are re-proposed gaplessly; lost adoption-window proposals are
        # retransmitted at sync; stalled followers re-sync themselves).
        assert outcomes["error"] == 0
        assert outcomes["final"] == counter["n"]
        live = [s for s in cluster.servers if s.alive]
        applied = {s.commit_log.last_applied for s in live}
        assert len(applied) == 1  # all live servers converged
        assert applied.pop() >= counter["n"]
        assert not any(s.commit_log.has_backlog() for s in live)

        # And the cluster still commits new work afterwards.
        probe = RecordingSink()
        clients[0].submit_sink("enqueue", "/queue", probe, "probe")
        env.run(until=60_000.0)
        assert probe.kinds() == ["final"]


class TestZombieLeader:
    def test_partitioned_live_leader_demotes_and_resyncs_after_heal(self):
        """A leader partitioned from both followers (but alive) is deposed;
        when the partition heals, its stale proposals earn a redirect, it
        demotes itself, and a snapshot brings it back in line."""
        # The schedule lives in ``zk_slices`` (it is also a determinism
        # golden): enqueues every 100 ms, partition from 3 s to 8 s.
        record, (cluster,) = zombie_leader()
        old_leader = cluster.leader

        assert record["failed"] == 0
        assert record["ok"] == record["sent"]
        # The deposed leader demoted itself and caught up via snapshot.
        assert not old_leader.is_leader
        assert old_leader.epoch == cluster.current_leader().epoch
        assert old_leader.snapshots_received >= 1
        applied = {s.commit_log.last_applied for s in cluster.servers}
        assert len(applied) == 1


class TestRecoveryAndSync:
    def test_old_leader_rejoins_as_follower_and_syncs(self):
        env, cluster = _build()
        client = cluster.add_client("app", Region.FRK,
                                    connect_region=Region.FRK, failover=True)
        env.run(until=500.0)
        old_leader = cluster.leader
        old_leader.crash()
        env.run(until=5_000.0)

        # Commit work the old leader never saw.
        done = RecordingSink()
        client.submit_sink("dequeue", "/queue", done)
        client.submit_sink("enqueue", "/queue", done, "after-crash")
        env.run(until=10_000.0)
        assert len(done.answers) == 2

        old_leader.recover()
        env.run(until=15_000.0)

        new_leader = cluster.current_leader()
        assert new_leader is not old_leader
        assert not old_leader.is_leader
        assert old_leader.epoch == new_leader.epoch
        assert old_leader.commit_log.last_applied == \
            new_leader.commit_log.last_applied
        assert old_leader.tree.get_children("/queue") == \
            new_leader.tree.get_children("/queue")

    def test_crashed_follower_syncs_after_recovery(self):
        env, cluster = _build()
        client = cluster.add_client("app", Region.IRL,
                                    connect_region=Region.IRL, failover=True)
        follower = cluster.followers[0]
        env.run(until=300.0)
        follower.crash()

        done = RecordingSink()
        for _ in range(4):
            client.submit_sink("enqueue", "/queue", done, "while-down")
        env.run(until=3_000.0)
        assert len(done.answers) == 4
        assert follower.commit_log.last_applied == 0

        follower.recover()
        env.run(until=8_000.0)
        assert follower.commit_log.last_applied == \
            cluster.leader.commit_log.last_applied
        assert follower.tree.get_children("/queue") == \
            cluster.leader.tree.get_children("/queue")


class TestOrphanOriginsExpire:
    """Origins stashed when a proposal dies with its leader are re-attached
    if the request is re-proposed — and otherwise must not outlive the
    client's patience (they used to stay forever)."""

    @staticmethod
    def _strand_three_writes(config):
        """Three writes proposed by a leader cut off from both followers;
        after the heal a fourth write earns it the redirect and it demotes
        itself, stashing the three origins nobody will re-propose."""
        env = SimEnvironment(seed=7)
        cluster = ZooKeeperCluster(env, config=config)
        cluster.preload_queue("/queue", [])
        cluster.enable_failure_detection()
        client = cluster.add_client("app", Region.IRL,
                                    connect_region=Region.IRL, failover=True)
        old_leader = cluster.leader
        env.run(until=500.0)
        for follower in cluster.followers:
            env.network.partition(old_leader.name, follower.name)
        for i in range(3):
            client.submit_sink("enqueue", "/queue", RecordingSink(),
                               f"stranded-{i}")
        env.run(until=4_000.0)
        assert cluster.current_leader() is not None
        for follower in cluster.followers:
            env.network.heal(old_leader.name, follower.name)
        client.submit_sink("enqueue", "/queue", RecordingSink(), "after-heal")
        env.run(until=6_000.0)
        assert not old_leader.is_leader
        return env, cluster, old_leader

    def test_stash_is_dropped_once_the_client_gave_up(self):
        config = ZooKeeperConfig.fault_tolerant()
        env, cluster, old_leader = self._strand_three_writes(config)
        assert len(old_leader._orphan_origins) >= 3
        assert cluster.in_flight()["orphan_origins"] >= 3
        # 2 s timeout x (3 retries + 1): nobody waits beyond 8 s.
        assert config.client_patience_ms() == 8_000.0
        env.run(until=6_000.0 + config.client_patience_ms()
                + 2 * config.heartbeat_interval_ms)
        assert cluster.in_flight() == DRAINED

    def test_stash_is_kept_while_the_client_waits_forever(self):
        config = ZooKeeperConfig.fault_tolerant(request_timeout_ms=0.0)
        assert config.client_patience_ms() == 0.0
        env, cluster, _ = self._strand_three_writes(config)
        env.run(until=60_000.0)
        in_flight = cluster.in_flight()
        # No timeout, no retry: the clients really are still waiting.
        assert in_flight["client_pending"] >= 3
        assert in_flight["orphan_origins"] >= 3

    def test_promoting_leader_reattaches_and_clears_its_stash(
            self, monkeypatch):
        """A write whose proposal died with the leader is re-proposed by its
        origin once that server is promoted: the stash entry moves back to
        the origin table instead of lingering beside it (with expiry off,
        so only the re-attachment can have removed it)."""
        from repro.bench.common import DrainCheck
        from repro.zookeeper_sim.server import ZKServer

        monkeypatch.setattr(ZKServer, "_expire_orphan_origins",
                            lambda self: None)
        # The figure's end-of-run check would fail the run (see below);
        # record what it saw instead.
        seen = []
        monkeypatch.setattr(
            DrainCheck, "verify",
            lambda self, *clusters: seen.extend(c.in_flight()
                                                for c in clusters))
        record, (cluster,) = leader_crash()
        assert record["promotions"] == 1
        assert not cluster.current_leader()._orphan_origins
        # With expiry off, the demoted leader keeps the stash of writes
        # nobody re-proposes, and the drain check is what notices.
        (in_flight,) = seen
        assert in_flight["orphan_origins"] > 0


_NON_NEGATIVE = (
    "request_service_ms", "proposal_service_ms", "apply_service_ms",
    "simulation_service_ms", "element_size_bytes", "child_name_bytes",
    "path_size_bytes", "ack_bytes", "heartbeat_interval_ms",
    "request_timeout_ms", "client_retries")
#: Wire sizes and the retry count: ints only.
_COUNTS = ("element_size_bytes", "child_name_bytes", "path_size_bytes",
           "ack_bytes", "client_retries")


@pytest.mark.parametrize(
    "overrides, named",
    [({field: -1}, field) for field in _NON_NEGATIVE]
    + [({field: bad}, field) for field in _COUNTS
       for bad in (2.5, float("inf"))] + [
        # Every follower would suspect a healthy leader on every tick.
        (dict(leader_timeout_ms=200.0), "leader_timeout_ms"),
        (dict(leader_timeout_ms=150.0), "leader_timeout_ms"),
        (dict(election_window_ms=0.0), "election_window_ms")])
def test_bad_config_fails_at_build_time(overrides, named):
    with pytest.raises(ValueError, match=named):
        ZooKeeperConfig.fault_tolerant(**overrides)
    with pytest.raises(ValueError, match=named):
        ZooKeeperConfig(**{"heartbeat_interval_ms": 200.0, **overrides})
    if "leader_timeout_ms" in overrides or "election_window_ms" in overrides:
        # Without heartbeats nothing ever reads the election knobs.
        ZooKeeperConfig(**overrides)


@pytest.mark.parametrize("named", _NON_NEGATIVE + (
    "leader_timeout_ms", "election_window_ms"))
def test_nan_config_fails_at_build_time(named):
    # NaN compares false both ways, so only ``not x >= 0`` catches it.
    with pytest.raises(ValueError, match=named):
        ZooKeeperConfig.fault_tolerant(**{named: float("nan")})


@pytest.mark.parametrize("named", (
    "request_service_ms", "proposal_service_ms", "apply_service_ms",
    "simulation_service_ms", "leader_timeout_ms", "election_window_ms",
    "request_timeout_ms"))
def test_infinite_time_fails_at_build_time(named):
    """An infinite service time finishes no job, and a timeout or period
    already means "never" with 0: inf fails at construction, heartbeats on
    or off."""
    with pytest.raises(ValueError, match=named):
        ZooKeeperConfig(**{named: float("inf")})
