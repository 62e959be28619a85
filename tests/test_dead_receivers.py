"""Every dead-receiver exit of the clients, the 2PC manager and the 2PC
participants, by name.

A continuation starts with its delivery preamble: a receiver that died
while the hop was in flight counts the hop in ``messages_dropped``,
drops its reference (Cassandra's pooled records) and does nothing else.
Each test runs until the hop is the next event, serves it with its
receiver crashed and recovers the receiver at once, so exactly that one
hop is dropped; then the run drains, through the store's own retry path.

The exits stay one copy per continuation: a shared check in the delivery
path would cost each hop more bytecodes (21 against 11 to 13 for the
inline preamble, plus 3 at the send) than the exact rows leave room for.
"""

from __future__ import annotations

from fault_slices import one_client_cluster
from history import RecordingSink
from txn_helpers import collect, make_fabric, no_failover_config

from repro.bench.common import DrainCheck
from repro.cassandra_sim.config import CassandraConfig
from repro.sim.environment import SimEnvironment
from repro.sim.topology import Region
from repro.zookeeper_sim.cluster import ZooKeeperCluster
from repro.zookeeper_sim.config import ZooKeeperConfig


def serve_dropped(env, handler):
    """Run until the next event is a hop to the bound continuation
    ``handler``, serve it with its node crashed, then recover the node."""
    scheduler, heap = env.scheduler, env.scheduler._heap
    while not (heap and heap[0][2] == handler):
        assert scheduler.step(), f"no hop to {handler.__name__}"
    node, dropped = handler.__self__, env.network.messages_dropped
    node.crash()
    scheduler.step()
    node.recover()
    assert env.network.messages_dropped == dropped + 1


# -- the Cassandra client ------------------------------------------------------
def test_a_read_preliminary_to_a_dead_client_is_dropped():
    drain = DrainCheck("dropped preliminary")
    env, cluster, client = one_client_cluster()
    sink = RecordingSink()
    client.lean_read("key1", 2, True, sink)
    serve_dropped(env, client._fused_read_preliminary)
    env.run_until_idle()
    assert sink.kinds() == ["final"]
    drain.verify(cluster)


def test_a_final_to_a_dead_client_is_dropped_and_the_timeout_resends():
    drain = DrainCheck("dropped final")
    env, cluster, client = one_client_cluster()
    sink = RecordingSink()
    client.lean_write("key1", "x", 2, sink)
    serve_dropped(env, client._fused_final)
    env.run_until_idle()
    assert sink.kinds() == ["final"] and client.retries == 1
    drain.verify(cluster)


def test_an_error_to_a_dead_client_is_dropped_and_the_timeout_resends():
    # Every owner of the key down, and the contact holds no replica of it:
    # its quorum wait ends in an error, dropped; the client's timeout
    # re-sends once the owners are back.
    drain = DrainCheck("dropped error")
    env, cluster, client = one_client_cluster(
        CassandraConfig.fault_tolerant(replication_factor=2))
    key = next(f"key{i}" for i in range(10) if client._contacts[0]
               not in cluster.partitioner.replicas_for(f"key{i}"))
    owners = [cluster.replica_by_name(name)
              for name in cluster.partitioner.replicas_for(key)]
    for replica in owners:
        replica.crash()
    sink = RecordingSink()
    client.lean_read(key, 2, False, sink)
    serve_dropped(env, client._fused_error)
    for replica in owners:
        replica.recover()
    env.run_until_idle()
    assert sink.kinds() == ["final"] and client.retries == 1
    drain.verify(cluster)


def test_an_error_for_a_completed_operation_retires_its_attempt():
    # A 15 ms timeout sends the read to all three contacts before the first
    # final lands (about 40 ms); the third contact has left the ring, and
    # its rejection arrives after that final.
    drain = DrainCheck("late error")
    env, cluster, client = one_client_cluster(CassandraConfig.fault_tolerant(
        client_timeout_ms=15.0, client_retries=2))
    retired = env.network.node(client._contacts[2])
    retired.ring_state = "retired"
    sink = RecordingSink()
    client.lean_read("key1", 2, False, sink)
    env.run_until_idle()
    assert sink.kinds() == ["final"] and sink.calls[0][3] < 45.0
    assert retired.stale_rejections == 1 and env.now() > 100.0
    assert client.failed_requests == 0
    drain.verify(cluster)


# -- the ZooKeeper client ------------------------------------------------------
def _zk(**config):
    env = SimEnvironment(seed=7)
    cluster = ZooKeeperCluster(env, config=ZooKeeperConfig(**config))
    return env, cluster, cluster.add_client("c", Region.IRL, Region.FRK,
                                            failover=True)


def test_a_preliminary_to_a_dead_zk_client_is_dropped():
    env, cluster, client = _zk()
    sink = RecordingSink()
    client.submit_sink("create", "/x", sink, data="x", icg=True)
    serve_dropped(env, client._zk_preliminary)
    env.run_until_idle()
    assert sink.kinds() == ["final"]
    DrainCheck("zk preliminary").verify(cluster)


def test_a_response_to_a_dead_zk_client_is_dropped_and_the_timeout_resends():
    env, cluster, client = _zk(request_timeout_ms=500.0)
    sink = RecordingSink()
    client.submit_sink("get_children", "/", sink)
    serve_dropped(env, client._zk_response)
    env.run_until_idle()
    assert sink.kinds() == ["final"] and client.retries == 1
    DrainCheck("zk response").verify(cluster)


# -- the 2PC manager and participants -----------------------------------------
def _one_transaction(standby_first=False):
    fabric = make_fabric(config=no_failover_config(client_timeout_ms=300.0))
    if standby_first:
        manager, standby = fabric.manager, fabric.coordinators[1].name
        pick = manager.balancer.pick
        manager.balancer.pick = lambda now_ms, **hints: (
            pick(now_ms, **hints) if manager.retries else standby)
    box = collect(fabric.manager.execute({fabric.built.dataset.keys()[0]:
                                          "v"}))
    return fabric, fabric.built.env, box


def _drained(fabric, box, outcome="commit"):
    fabric.built.env.run_until_idle()
    assert box["final"].value["outcome"] == outcome
    assert not any(fabric.in_flight().values())
    fabric.assert_atomic()


def test_a_redirect_to_a_dead_manager_is_dropped():
    fabric, env, box = _one_transaction(standby_first=True)
    serve_dropped(env, fabric.manager._txn_redirect)
    _drained(fabric, box)
    assert fabric.manager.redirects_followed == 0
    assert fabric.manager.retries == 1


def test_a_prepared_notice_to_a_dead_manager_is_dropped():
    fabric, env, box = _one_transaction()
    serve_dropped(env, fabric.manager._txn_prepared)
    _drained(fabric, box)
    assert box["views"][:-1] == [] and fabric.manager.stats.prepared_views == 0


def test_a_final_to_a_dead_manager_is_dropped_and_the_retry_fetches_it():
    fabric, env, box = _one_transaction()
    serve_dropped(env, fabric.manager._txn_final)
    _drained(fabric, box)
    assert fabric.manager.retries == 1


def _first_owner(fabric):
    return fabric.participants[
        fabric.owners_of(fabric.built.dataset.keys()[0])[0]]


def test_a_prepare_to_a_dead_participant_is_dropped_and_the_vote_times_out():
    fabric, env, box = _one_transaction()
    serve_dropped(env, _first_owner(fabric)._txn_prepare)
    _drained(fabric, box, outcome="abort")
    assert fabric.coordinators[0].prepare_timeouts == 1


def test_a_decision_to_a_dead_participant_is_dropped_and_redelivered():
    fabric, env, box = _one_transaction()
    owner = _first_owner(fabric)
    serve_dropped(env, owner._txn_decision)
    _drained(fabric, box)
    assert owner.commits_applied == 1
