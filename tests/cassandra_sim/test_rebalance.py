"""Live ring-rebalance tests: join/decommission/remove under traffic.

These exercise the full orchestration path — bootstrap → stream → announce →
serve — through the simulated scheduler, including the safety properties the
protocol promises: no acknowledged write is ever lost across an ownership
change, stale-epoch requests are retried against the fresh preference list,
and retired coordinators hand their clients over to a fallback contact.
"""

import pytest
from checkers import lost_acked_writes, well_formed
from history import History, RecordingSink

from repro.cassandra_sim.client import CassandraClient
from repro.cassandra_sim.cluster import CassandraCluster
from repro.cassandra_sim.config import CassandraConfig
from repro.cassandra_sim.partitioner import key_token, token_in_range
from repro.cassandra_sim.replica import CassandraReplica
from repro.cassandra_sim.storage import resolve
from repro.sim.environment import SimEnvironment
from repro.sim.topology import Region, Topology


def _env(seed=9):
    return SimEnvironment(seed=seed, topology=Topology(jitter_fraction=0.0))


def six_node_cluster(env, records=60, **config_kwargs):
    """A 6-node, RF=3 cluster (two nodes per region) with preloaded data."""
    regions = (Region.FRK, Region.IRL, Region.VRG)
    nodes = [(f"cassandra-{i}-{regions[i % 3]}", regions[i % 3])
             for i in range(6)]
    cluster = CassandraCluster(env, CassandraConfig(**config_kwargs),
                               nodes=nodes)
    cluster.preload({f"key{i}": f"value{i}" for i in range(records)})
    return cluster


def newest_at_owners(cluster, key):
    """Resolve ``key`` across its current owners' local tables."""
    return resolve([cluster.replica_by_name(name).table.get(key)
                    for name in cluster.partitioner.replicas_for(key)])


class TestJoin:
    def test_join_completes_and_serves(self):
        env = _env()
        cluster = six_node_cluster(env)
        operation = cluster.join_node("cassandra-6-" + Region.FRK, Region.FRK)
        env.run_until_idle()
        assert operation.done
        assert cluster.partitioner.version == 1
        joiner = cluster.replica_by_name("cassandra-6-" + Region.FRK)
        assert joiner.ring_state == "serving"
        assert joiner in cluster.replicas

    def test_joiner_holds_every_key_it_now_owns(self):
        env = _env()
        cluster = six_node_cluster(env)
        name = "cassandra-6-" + Region.FRK
        cluster.join_node(name, Region.FRK)
        env.run_until_idle()
        joiner = cluster.replica_by_name(name)
        owned = [f"key{i}" for i in range(60)
                 if cluster.partitioner.is_replica(name, f"key{i}")]
        assert owned  # 8 vnodes on a 7-node ring: the joiner owns something
        for key in owned:
            version = joiner.table.get(key)
            assert version is not None, key
            assert version.value == key.replace("key", "value")

    def test_join_streams_only_gained_ranges(self):
        env = _env()
        cluster = six_node_cluster(env)
        operation = cluster.join_node("cassandra-6-" + Region.FRK, Region.FRK)
        env.run_until_idle()
        streamed = cluster.total("keys_streamed_in")
        joiner_rows = len(cluster.replica_by_name(
            "cassandra-6-" + Region.FRK).table)
        assert streamed == joiner_rows  # nothing beyond the plan moved
        assert operation.change.total_ranges() > 0

    def test_scheduled_join_starts_at_requested_time(self):
        env = _env()
        cluster = six_node_cluster(env)
        operation = cluster.join_node("cassandra-6-" + Region.FRK, Region.FRK,
                                      at_ms=500.0)
        env.run_until_idle()
        assert operation.started_at == 500.0
        assert operation.completed_at > 500.0

    def test_bootstrapping_node_rejects_client_ops(self):
        env = _env()
        # Freeze the operation mid-bootstrap: plan+begin but stream slowly.
        cluster = six_node_cluster(env, stream_scan_ms=10_000.0)
        name = "cassandra-6-" + Region.FRK
        cluster.join_node(name, Region.FRK)
        env.run(until=50.0)
        joiner = cluster.replica_by_name(name)
        assert joiner.ring_state == "bootstrapping"
        client = CassandraClient("c", Region.FRK, env.network, name,
                                 cluster.config)
        results = RecordingSink()
        client.lean_read("key1", 1, False, results)
        env.run(until=100.0)
        assert results.kinds() == ["error"]


class TestDecommission:
    def test_decommission_retires_node(self):
        env = _env()
        cluster = six_node_cluster(env)
        leaving = cluster.replicas[5].name
        operation = cluster.decommission_node(leaving)
        env.run_until_idle()
        assert operation.done
        replica = cluster.replica_by_name(leaving)
        assert replica.ring_state == "retired"
        assert replica not in cluster.replicas
        assert not cluster.partitioner.contains(leaving)
        assert all(name != leaving
                   for key in (f"key{i}" for i in range(60))
                   for name in cluster.partitioner.replicas_for(key))

    def test_every_key_still_resolvable_after_decommission(self):
        env = _env()
        cluster = six_node_cluster(env)
        cluster.decommission_node(cluster.replicas[5].name)
        env.run_until_idle()
        for i in range(60):
            version = newest_at_owners(cluster, f"key{i}")
            assert version is not None and version.value == f"value{i}"

    def test_forced_remove_rereplicates_from_survivors(self):
        env = _env()
        cluster = six_node_cluster(env)
        dead = cluster.replicas[4]
        dead.crash()
        operation = cluster.remove_node(dead.name)
        env.run_until_idle()
        assert operation.done
        assert not cluster.partitioner.contains(dead.name)
        for i in range(60):
            version = newest_at_owners(cluster, f"key{i}")
            assert version is not None and version.value == f"value{i}"

    def test_removal_below_rf_rejected(self):
        env = _env()
        cluster = CassandraCluster(env, CassandraConfig())
        with pytest.raises(ValueError):
            cluster.decommission_node(cluster.replicas[0].name)


class TestSafetyUnderTraffic:
    def drive(self, cluster, env, event, writes=150, until=4_000.0):
        """Interleave writes with ``event`` at t=300, then check that
        every write got one ack and no acknowledged write is lost."""
        client = cluster.add_client(
            "c", Region.IRL, contact_region=Region.FRK,
            fallbacks=True)
        history = History(env.scheduler.now)

        def write_one(i):
            key, value = f"key{i % 60}", f"new-{i}"
            client.lean_write(key, value, 1,
                              history.invoke("update", key, 1, value))

        for i in range(writes):
            env.scheduler.schedule_call_at(5.0 * i, write_one, (i,))
        event()
        env.run(until=until)
        env.run_until_idle()
        assert len(history.ops) == writes
        assert any(op.kinds() == ["final"] for op in history.ops)
        assert well_formed(history) == lost_acked_writes(history, cluster) \
            == []

    def test_zero_lost_acked_writes_across_join(self):
        env = _env()
        cluster = six_node_cluster(env)
        self.drive(cluster, env,
                   lambda: cluster.join_node("cassandra-6-" + Region.FRK,
                                             Region.FRK, at_ms=300.0))

    def test_zero_lost_acked_writes_across_decommission(self):
        env = _env()
        cluster = six_node_cluster(env)
        leaving = cluster.replicas[5].name
        self.drive(cluster, env,
                   lambda: cluster.decommission_node(leaving, at_ms=300.0))

    def test_new_keys_inserted_while_ranges_stream(self, monkeypatch):
        """A join, then a decommission, under writes that *create* keys: the
        sources' key sets differ between the two plans' scans, so a token
        index built for the join must not answer the decommission.  Every
        task still selects — and then ships, batch by batch — exactly what a
        fresh full scan of its source selects, and no acknowledged write —
        to an old or a brand-new key — is lost."""
        env = _env()
        cluster = six_node_cluster(env)
        scans = []  # (source, rows in its table at scan time)
        selected = {}  # stream -> the reference key sequence
        shipped = {}   # stream -> keys that reached the target
        scan = CassandraReplica._stream_scan
        apply_batch = CassandraReplica._stream_apply

        def checked_scan(replica, stream):
            task = stream.task
            selected[stream] = [
                key for key in replica.table.keys()
                if token_in_range(key_token(key), task.start_token,
                                  task.end_token)]
            scan(replica, stream)
            assert ([cluster.keyspace.keys_of([kid])[0] for kid in stream.rows]
                    == selected[stream]), task
            scans.append((replica.name, len(replica.table)))

        def recording_apply(replica, stream):
            # A batch ships key ids into the cluster's one key space.
            shipped.setdefault(stream, []).extend(
                cluster.keyspace.keys_of([kid])[0] for kid in stream.batch)
            apply_batch(replica, stream)

        monkeypatch.setattr(CassandraReplica, "_stream_scan", checked_scan)
        monkeypatch.setattr(CassandraReplica, "_stream_apply",
                            recording_apply)
        client = cluster.add_client("c", Region.IRL,
                                    contact_region=Region.FRK, fallbacks=True)
        history = History(env.scheduler.now)

        def write_one(i):
            # Two new keys for every overwrite of a preloaded one.
            key = f"key{i % 60}" if i % 3 == 0 else f"fresh{i}"
            client.lean_write(key, f"new-{i}", 1, history.invoke(
                "update", key, 1, f"new-{i}"))

        for i in range(400):
            env.scheduler.schedule_call_at(5.0 * i, write_one, (i,))
        leaving = cluster.replicas[5].name
        join = cluster.join_node(
            "cassandra-6-" + Region.FRK, Region.FRK, at_ms=100.0,
            on_complete=lambda _: cluster.decommission_node(leaving))
        env.run_until_idle()
        decommission = cluster.rebalances[-1]
        assert join.done and decommission.done
        assert decommission.kind == "decommission"
        assert decommission.started_at < 5.0 * 400  # writes still arriving
        assert len(scans) == (len(join.change.tasks)
                              + len(decommission.change.tasks))
        # Every non-empty task delivered its reference sequence, in order.
        assert shipped == {task: keys for task, keys in selected.items()
                           if keys}
        assert cluster.total("keys_streamed_in") == sum(map(len, shipped.values()))
        # The premise: some source was scanned at two different sizes.
        sizes = {}
        for source, rows in scans:
            sizes.setdefault(source, set()).add(rows)
        assert any(len(seen) > 1 for seen in sizes.values())
        assert any(op.key.startswith("fresh") and op.kinds() == ["final"]
                   for op in history.ops)
        assert lost_acked_writes(history, cluster) == []

    def test_stale_epoch_reads_are_retried_not_failed(self):
        env = _env()
        cluster = six_node_cluster(env)
        client = cluster.add_client("c", Region.IRL,
                                    contact_region=Region.FRK, fallbacks=True)
        results = RecordingSink()

        def read_one(i):
            client.lean_read(f"key{i % 60}", 2, True, results)

        for i in range(120):
            env.scheduler.schedule_call_at(5.0 * i, read_one, (i,))
        cluster.decommission_node(cluster.replicas[5].name, at_ms=250.0)
        env.run_until_idle()
        assert len(results.answers) == 120
        for answer in results.answers:
            assert answer.kind == "final"
            assert answer.value.startswith("value")

    def test_client_fails_over_from_retired_coordinator(self):
        env = _env()
        cluster = six_node_cluster(env)
        leaving = cluster.replicas[0]  # the FRK contact replica
        client = cluster.add_client("c", Region.IRL,
                                    contact_region=Region.FRK, fallbacks=True)
        assert client.contact == leaving.name
        cluster.decommission_node(leaving.name)
        env.run_until_idle()
        results = RecordingSink()
        client.lean_read("key1", 2, False, results)
        env.run_until_idle()
        assert results.kinds() == ["final"]
        assert results.answers[0].value == "value1"
        assert client.retries >= 1

    def test_writes_forwarded_to_pending_owners(self):
        env = _env()
        # Stretch the bootstrap window.
        cluster = six_node_cluster(env, stream_scan_ms=200.0)
        client = cluster.add_client("c", Region.IRL,
                                    contact_region=Region.FRK)
        cluster.join_node("cassandra-6-" + Region.FRK, Region.FRK)
        for i in range(60):
            env.scheduler.schedule_call_at(
                10.0 + i, client.lean_write,
                (f"key{i}", f"fresh-{i}", 1, RecordingSink()))
        env.run_until_idle()
        assert cluster.total("writes_forwarded") > 0
        # Every key the joiner now owns reflects the newest write.
        name = "cassandra-6-" + Region.FRK
        joiner = cluster.replica_by_name(name)
        for i in range(60):
            if cluster.partitioner.is_replica(name, f"key{i}"):
                assert joiner.table.get(f"key{i}").value == f"fresh-{i}"


class TestClusterSurface:
    def test_rebalance_objects_recorded(self):
        env = _env()
        cluster = six_node_cluster(env)
        cluster.join_node("cassandra-6-" + Region.FRK, Region.FRK)
        env.run_until_idle()
        assert len(cluster.rebalances) == 1
        assert cluster.rebalances[0].done
        assert cluster.rebalances[0].duration_ms() > 0

    def test_sequential_rebalances_compose(self):
        env = _env()
        cluster = six_node_cluster(env)
        name = "cassandra-6-" + Region.FRK
        cluster.join_node(name, Region.FRK, at_ms=10.0)
        cluster.decommission_node(name, at_ms=2_000.0)
        env.run_until_idle()
        assert cluster.partitioner.version == 2
        assert not cluster.partitioner.contains(name)
        for i in range(60):
            version = newest_at_owners(cluster, f"key{i}")
            assert version is not None and version.value == f"value{i}"

    def test_explicit_nodes_constructor_validates_rf(self):
        env = _env()
        with pytest.raises(ValueError):
            CassandraCluster(env, CassandraConfig(),
                             nodes=[("a", Region.FRK), ("b", Region.IRL)])
        with pytest.raises(ValueError, match="not both"):
            CassandraCluster(env, CassandraConfig(), nodes=[("a", Region.FRK)],
                             replica_regions=[Region.FRK])

    def test_bad_membership_edits_fail_loudly(self):
        cluster = six_node_cluster(_env())
        with pytest.raises(KeyError, match="nope"):
            cluster.replica_by_name("nope")
        with pytest.raises(ValueError, match="already exists"):
            cluster.join_node(cluster.replicas[0].name, Region.FRK)
        with pytest.raises(ValueError, match="region"):
            cluster.join_node("cassandra-6", None)
        later = cluster.join_node("cassandra-6", Region.FRK, at_ms=50.0)
        with pytest.raises(RuntimeError, match="not completed"):
            later.duration_ms()

    def test_a_removal_that_moves_nothing_commits_at_once(self):
        """RF=1: the dead node's ranges have no survivor to stream from,
        so the forced removal has no task and announces when it starts
        (those keys are lost; nothing can bring them back)."""
        env = _env()
        cluster = CassandraCluster(
            env, CassandraConfig(replication_factor=1),
            nodes=[(f"n{i}", Region.FRK) for i in range(3)])
        dead = cluster.replicas[2]
        dead.crash()
        removal = cluster.remove_node(dead.name)
        assert removal.change.tasks == ()
        assert removal.done and removal.duration_ms() == 0.0
        assert cluster.partitioner.version == 1

    def test_a_removal_skips_the_tasks_of_a_crashed_source(self):
        """A second crash during a forced removal: the tasks the crashed
        survivor would source are skipped, the rest stream (those to it
        once it is back), and the change still commits (forwarding and
        read repair cover the skipped ranges)."""
        env = _env()
        cluster = six_node_cluster(env)
        dead = cluster.replicas[4]
        dead.crash()
        change = cluster.partitioner.plan_remove(dead.name)
        second = cluster.replica_by_name(change.tasks[0].source)
        second.crash()
        removal = cluster.remove_node(dead.name)
        env.scheduler.schedule_call_at(500.0, second.recover)
        env.run_until_idle()
        skipped = [task for task in removal.change.tasks
                   if task.source == second.name]
        assert removal.skipped_tasks == skipped != []
        assert len(skipped) < len(removal.change.tasks)
        assert removal.done and cluster.partitioner.version == 1


@pytest.mark.slow
class TestMillionKeyRebalance:
    """Tier-2 scale: the 4M-key Figure 15 join cell end to end.

    The join streams >1M keys onto the joiner, and the standard
    zero-lost-acked-writes audit runs over the whole rebalance.  This is
    the only test that drives the storage tables at multi-million-key
    scale.
    """

    def test_four_million_key_join_cell(self):
        from repro.bench.fig15_rebalance import MILLION_KEY_CELL
        from repro.bench.figures import FIG15

        (record,) = FIG15.run(**MILLION_KEY_CELL)
        # The join must have committed a new ring version after streaming
        # real ranges.
        assert record["ring_version"] == 1
        assert record["keys_streamed"] > MILLION_KEY_CELL["record_count"] // 10
        # Safety under traffic: acked client writes rode across the
        # ownership change and none of them was lost.
        assert record["acked_writes"] > 0
        assert record["lost_acked_writes"] == 0
        assert record["failed_ops"] == 0
