"""Tests for Cassandra's fault-recovery paths: coordinator timeouts with
retry/downgrade, client-side failover, read repair after recovery, and
late-preliminary accounting."""

import pytest
from fault_slices import one_client_cluster
from history import RecordingSink

from repro.bindings.cassandra import CassandraBinding
from repro.cassandra_sim.cluster import CassandraCluster
from repro.cassandra_sim.config import CassandraConfig
from repro.core.client import CorrectableClient
from repro.core.operations import read
from repro.sim.environment import SimEnvironment
from repro.sim.topology import Region


class TestCoordinatorRetry:
    def test_quorum_read_spans_replica_crash_via_retry(self):
        """A quorum-2 read completes although a quorum member is down:
        the coordinator re-solicits the remaining replica."""
        env, cluster, client = one_client_cluster()
        cluster.replica_in(Region.IRL).crash()

        results = RecordingSink()
        client.lean_read("key1", 2, False, results)
        env.run_until_idle()

        assert len(results.answers) == 1
        assert results.answers[0].value == "value1"
        assert results.answers[0].kind == "final"
        coordinator = cluster.replica_in(Region.FRK)
        assert coordinator.read_retries >= 1
        # The full quorum was eventually met by the third replica, so the
        # response is not marked degraded.
        assert results.answers[0].degraded is False

    def test_read_downgrades_when_quorum_unreachable(self):
        """With two replicas down, R=2 cannot be met; after retries the
        coordinator answers from its local copy, flagged as degraded."""
        env, cluster, client = one_client_cluster()
        cluster.replica_in(Region.IRL).crash()
        cluster.replica_in(Region.VRG).crash()

        results = RecordingSink()
        client.lean_read("key2", 2, False, results)
        env.run_until_idle()

        assert len(results.answers) == 1
        assert results.answers[0].value == "value2"
        assert results.answers[0].degraded is True
        coordinator = cluster.replica_in(Region.FRK)
        assert coordinator.reads_downgraded == 1

    def test_read_fails_when_no_replica_responds(self):
        """A coordinator that holds no replica of the key, with both
        owners down: after its retry it has no response to downgrade to,
        so it reports an error instead of silently hanging."""
        config = CassandraConfig.fault_tolerant(replication_factor=2,
                                                client_timeout_ms=0.0)
        env, cluster, client = one_client_cluster(config=config)
        coordinator = cluster.replica_in(Region.FRK)
        key = next(f"key{i}" for i in range(10) if coordinator.name
                   not in cluster.partitioner.replicas_for(f"key{i}"))
        for name in cluster.partitioner.replicas_for(key):
            cluster.replica_by_name(name).crash()
        results = RecordingSink()
        client.lean_read(key, 2, False, results)
        env.run_until_idle()

        assert len(results.answers) == 1
        assert results.answers[0].kind == "error"
        assert results.answers[0].error == "read timeout: no replica responded"
        assert coordinator.read_retries == coordinator.reads_failed == 1

    def test_write_survives_single_crash_without_retry(self):
        """Writes already fan out to every replica, so one crash leaves the
        quorum intact and no retry is needed."""
        env, cluster, client = one_client_cluster()
        cluster.replica_in(Region.IRL).crash()

        results = RecordingSink()
        client.lean_write("key4", "new-value", 2, results)
        env.run_until_idle()

        assert len(results.answers) == 1
        assert results.answers[0].value == "new-value"
        assert results.answers[0].degraded is False
        assert cluster.replica_in(Region.FRK).write_retries == 0

    def test_write_retries_then_downgrades_when_quorum_unreachable(self):
        """With both other replicas down, W=2 cannot be met: the coordinator
        retries, then acknowledges with its own ack only, flagged degraded."""
        env, cluster, client = one_client_cluster()
        cluster.replica_in(Region.IRL).crash()
        cluster.replica_in(Region.VRG).crash()

        results = RecordingSink()
        client.lean_write("key4", "new-value", 2, results)
        env.run_until_idle()

        assert len(results.answers) == 1
        assert results.answers[0].value == "new-value"
        assert results.answers[0].degraded is True
        coordinator = cluster.replica_in(Region.FRK)
        assert coordinator.write_retries >= 1
        assert coordinator.writes_downgraded == 1
        assert coordinator.table.get("key4").value == "new-value"

    def test_retries_after_a_ring_change_reach_the_post_change_owners(self):
        """Every re-send walks the preference list of the ring as it is
        *then*: an owner crashes under a W=3 write and an R=3 read, is
        force-removed while both wait, and the timeout retries go to the
        node that took over its range — so both quorums complete in full."""
        env = SimEnvironment(seed=11)
        regions = (Region.FRK, Region.IRL, Region.VRG)
        cluster = CassandraCluster(
            env, CassandraConfig.fault_tolerant(),
            nodes=[(f"cassandra-{i}-{regions[i % 3]}", regions[i % 3])
                   for i in range(6)])
        cluster.preload({f"key{i}": f"value{i}" for i in range(60)})
        client = cluster.add_client("client", Region.IRL, Region.FRK)
        coordinator = cluster.replica_in(Region.FRK)
        key = next(f"key{i}" for i in range(60)
                   if cluster.partitioner.is_replica(coordinator.name,
                                                     f"key{i}"))
        before = cluster.partitioner.replicas_for(key)
        victim = cluster.replica_by_name(
            next(name for name in before if name != coordinator.name))
        victim.crash()
        cluster.remove_node(victim.name, at_ms=10.0)

        results = RecordingSink()
        client.lean_write(key, "new-value", 3, results)
        client.lean_read(key, 3, False, results)
        env.run_until_idle()

        after = cluster.partitioner.replicas_for(key)
        (heir,) = set(after) - set(before)
        assert cluster.partitioner.version == 1
        assert coordinator.write_retries == 1 and coordinator.read_retries == 1
        write, read_ = results.calls
        assert write.kind == read_.kind == "final"
        assert write.value == "new-value" and write.degraded is False
        assert read_.degraded is False
        assert cluster.replica_by_name(heir).table.get(key).value == \
            "new-value"
        assert cluster.in_flight() == {
            "read_sessions": 0, "write_sessions": 0, "client_pending": 0}

    def test_timeouts_disabled_by_default(self):
        """The default (seed) configuration schedules no timeout machinery."""
        env, cluster, client = one_client_cluster(config=CassandraConfig())
        results = RecordingSink()
        client.lean_read("key1", 2, False, results)
        env.run_until_idle()
        assert len(results.answers) == 1
        coordinator = cluster.replica_in(Region.FRK)
        assert coordinator.read_retries == 0
        assert coordinator.reads_downgraded == 0


class TestClientFailover:
    def test_client_fails_over_when_coordinator_crashes(self):
        env, cluster, client = one_client_cluster()
        cluster.replica_in(Region.FRK).crash()  # the client's contact

        results = RecordingSink()
        client.lean_read("key5", 2, False, results)
        env.run_until_idle()

        assert len(results.answers) == 1
        assert results.answers[0].value == "value5"
        assert client.retries >= 1
        assert client.failed_requests == 0

    def test_client_reports_error_when_everything_is_down(self):
        env, cluster, client = one_client_cluster()
        for replica in cluster.replicas:
            replica.crash()

        results = RecordingSink()
        client.lean_read("key6", 2, False, results)
        env.run_until_idle()

        assert len(results.answers) == 1
        assert results.answers[0].kind == "error"
        assert client.failed_requests == 1


class TestReadRepair:
    def test_recovered_replica_repaired_by_quorum_read(self):
        """A replica that missed a write while crashed converges after the
        partition of its downtime 'heals' (it recovers) and a quorum read
        observes the divergent responses."""
        env, cluster, client = one_client_cluster()
        lagging = cluster.replica_in(Region.IRL)
        lagging.crash()

        done = RecordingSink()
        client.lean_write("key7", "fresh", 1, done)
        env.run_until_idle()
        assert done

        lagging.recover()
        assert lagging.table.get("key7").value == "value7"  # still stale

        results = RecordingSink()
        client.lean_read("key7", 3, False, results)
        env.run_until_idle()
        assert results.answers[0].value == "fresh"
        # Read repair pushed the resolved version to the stale replica.
        env.run_until_idle()
        assert lagging.table.get("key7").value == "fresh"


class TestLatePreliminaries:
    def test_late_preliminary_counted_by_client(self):
        """After a failover, the slow original coordinator's preliminary
        arrives once the request already completed elsewhere; the client
        drops it and counts it — the wire-level analogue of a Correctable
        discarding a post-close update."""
        env, cluster, node = one_client_cluster()
        # The contact coordinator is alive but slow *and* partitioned away
        # from both other replicas: the client times out and completes via a
        # fallback coordinator, while the original coordinator — unable to
        # assemble its quorum — still flushes its (now useless) preliminary.
        frk = cluster.replica_in(Region.FRK)
        irl = cluster.replica_in(Region.IRL)
        vrg = cluster.replica_in(Region.VRG)
        frk.slow_down(700.0)
        env.network.partition(frk.name, irl.name)
        env.network.partition(frk.name, vrg.name)

        correctable_client = CorrectableClient(CassandraBinding(node))
        c = correctable_client.invoke(read("key8"))
        env.run_until_idle()

        assert c.is_final()
        assert c.value() == "value8"
        assert node.retries >= 1
        # The slow coordinator's preliminary landed after the final view:
        # dropped at the client, never delivered to the Correctable.
        assert node.late_preliminaries >= 1

    def test_late_update_after_close_increments_discarded_updates(self):
        """Correctable semantics under reordered deliveries: updates landing
        after close() are dropped and counted, never delivered."""
        from repro.core.consistency import STRONG, WEAK
        from repro.core.correctable import Correctable

        c = Correctable()
        delivered = []
        c.on_update(delivered.append)
        c.close("final", STRONG)
        assert c.update("late-preliminary", WEAK) is None
        assert c.update("even-later", WEAK) is None
        assert c.discarded_updates == 2
        assert delivered == []
        assert c.value() == "final"
