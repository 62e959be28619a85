"""Ring changes finish when a stream party crashes or is cut off mid-stream.

Range streaming is stop-and-wait: a batch or its acknowledgement dropped at
a dead node or across a partition parks the stream, and the party's
recovery, or the partition's heal, sends the batch again (an LWW merge is
idempotent, so a batch applied twice is harmless).  Each shape crashes one
party of a live change (or partitions its two parties) 5 ms in and
recovers it (or heals) 200 ms later; the change must then commit with
nothing left open, and every post-change owner must hold every preloaded
key.  A joiner that never comes back is removed instead, which aborts its
join.
"""

from __future__ import annotations

import pytest
from checkers import lost_acked_writes, well_formed
from hypothesis import HealthCheck, example, given, settings, strategies as st
from runs import drive, small_cluster

from repro.bench.common import DrainCheck
from repro.cassandra_sim.cluster import CassandraCluster
from repro.cassandra_sim.config import CassandraConfig
from repro.faults.schedule import FaultScheduleBuilder
from repro.sim.environment import SimEnvironment
from repro.sim.topology import Region, Topology

REGIONS = (Region.IRL, Region.FRK, Region.VRG)
ITEMS = {f"key{i}": f"value{i}" for i in range(3_000)}


def _ring(nodes: int):
    env = SimEnvironment(seed=9, topology=Topology(jitter_fraction=0.0))
    cluster = CassandraCluster(
        env, CassandraConfig(),
        nodes=[(f"node{i}", REGIONS[i % 3]) for i in range(nodes)])
    cluster.preload(ITEMS)
    return env, cluster


def _assert_finished(cluster, change) -> None:
    """The change committed, nothing is in flight or open, and every
    owner holds every preloaded key."""
    assert change.done
    assert cluster.partitioner._pending is None
    assert cluster.partitioner.version == 1
    assert not any(replica._streams for replica in
                   cluster.replicas + cluster.retired_replicas)
    for key, value in ITEMS.items():
        for owner in cluster.partitioner.replicas_for(key):
            assert cluster.replica_by_name(owner).table.get(key).value == \
                value, (key, owner)


@pytest.mark.parametrize("kind, victim, nodes", [
    ("join", "gainer", 6),         # the joiner
    ("join", "source", 6),         # a join's stream source
    ("decommission", "source", 6),  # the decommissioning node
    ("decommission", "gainer", 6),  # a decommission's stream target
    ("join", "gainer", 3),         # every range of a three-node ring
])
def test_a_change_whose_stream_party_crashes_finishes_after_recovery(
        kind, victim, nodes):
    env, cluster = _ring(nodes)
    if kind == "join":
        change = cluster.join_node("joiner", Region.FRK)
    else:
        change = cluster.decommission_node(cluster.replicas[-1].name)
    task = change.change.tasks[0]
    node = cluster.replica_by_name(
        task.target if victim == "gainer" else task.source)
    env.scheduler.schedule_call_at(5.0, node.crash)
    env.scheduler.schedule_call_at(205.0, node.recover)
    dropped = env.network.messages_dropped
    env.run_until_idle()
    assert env.network.messages_dropped > dropped, "the crash dropped nothing"
    _assert_finished(cluster, change)


@pytest.mark.parametrize("between, region", [("nodes", Region.FRK),
                                              ("regions", Region.IRL)])
def test_a_stream_parked_by_a_partition_resumes_when_it_heals(between,
                                                              region):
    """The join's first source is cut off from the joiner (or the two
    regions from each other) from 5 to 205 ms."""
    env, cluster = _ring(6)
    join = cluster.join_node("joiner", region)
    source = join.change.tasks[0].source
    network, at = env.network, env.scheduler.schedule_call_at
    if between == "nodes":
        at(5.0, network.partition, (source, "joiner"))
        at(205.0, network.heal, (source, "joiner"))
    else:
        regions = (network.node(source).region, region)
        assert regions[0] != regions[1]
        at(5.0, network.partition_regions, regions)
        at(205.0, network.heal_regions, regions)
    dropped = network.messages_dropped
    env.run_until_idle()
    assert network.messages_dropped > dropped, "the partition dropped nothing"
    _assert_finished(cluster, join)


def test_a_joiner_that_never_recovers_can_be_removed():
    env, cluster = _ring(6)
    join = cluster.join_node("joiner", Region.FRK)
    joiner = cluster.replica_by_name("joiner")
    env.scheduler.schedule_call_at(5.0, joiner.crash)
    removal = cluster.remove_node("joiner", at_ms=300.0)
    env.run_until_idle()
    assert removal.done and not join.done
    assert cluster.partitioner._pending is None
    assert cluster.partitioner.version == 0
    assert joiner.ring_state == "retired"
    assert joiner in cluster.retired_replicas
    assert joiner not in cluster.replicas
    assert not cluster.partitioner.contains("joiner")
    assert not any(replica._streams for replica in cluster.replicas)
    assert env.scheduler.pending(live_only=True) == 0


#: Fault windows ``(kind, victim, at_ms, duration_ms)``: a victim below
#: the ring's size is that replica, any other the node that joins or
#: leaves; a ``crash`` window crashes the victim, a ``partition`` window
#: cuts it off from the node that joins or leaves (replica 0 if that is
#: the victim).
WINDOWS = st.lists(
    st.tuples(st.sampled_from(["crash", "partition"]),
              st.integers(min_value=0, max_value=6),
              st.floats(min_value=110.0, max_value=900.0),
              st.floats(min_value=5.0, max_value=400.0)),
    min_size=1, max_size=2)


class TestCrashesAcrossRingChanges:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ring=st.sampled_from([("join", 3), ("join", 6),
                                 ("decommission", 6)]),
           windows=WINDOWS, seed=st.integers(min_value=1, max_value=10_000))
    # A three-node ring's joiner crashes 5 ms into its join and recovers
    # 200 ms later.
    @example(ring=("join", 3), windows=[("crash", 6, 105.0, 200.0)], seed=9)
    # The same, the joiner partitioned from replica 0 instead.
    @example(ring=("join", 3), windows=[("partition", 6, 105.0, 200.0)],
             seed=9)
    def test_every_change_finishes_and_no_acked_write_is_lost(
            self, ring, windows, seed):
        kind, nodes = ring
        drain = DrainCheck("crashes across a ring change")
        env, cluster, clients = small_cluster(nodes=nodes, seed=seed,
                                              stream_batch_items=2)
        if kind == "join":
            name = f"cassandra-{nodes}-{Region.FRK}"
            change = cluster.join_node(name, Region.FRK, at_ms=100.0)
        else:
            name = cluster.replicas[-1].name
            change = cluster.decommission_node(name, at_ms=100.0)
        builder = FaultScheduleBuilder()
        for kind, victim, at_ms, duration_ms in windows:
            target = f"replica:{victim}" if victim < nodes else name
            if kind == "crash":
                builder.crash_window(target, at_ms, duration_ms)
            else:
                builder.partition_window(
                    target, name if target != name else "replica:0",
                    at_ms, duration_ms)
        history = drive(env, cluster, clients, builder.build(), 1_200.0,
                        seed)
        assert change.done
        assert cluster.partitioner._pending is None
        assert well_formed(history) == []
        assert lost_acked_writes(history, cluster) == []
        drain.verify(cluster)
