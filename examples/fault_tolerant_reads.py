"""Correctables under faults: reads keep flowing while replicas die.

Demonstrates the ``repro.faults`` subsystem end-to-end:

1. build a fault-tolerant Cassandra deployment (coordinator timeouts with
   retry/downgrade, client failover, read repair);
2. script a fault scenario — one replica crashes mid-run and recovers;
3. issue ICG reads throughout and watch every one of them complete, with the
   preliminary view arriving fast and the final view routed around the crash;
4. afterwards, a ZooKeeper ensemble loses its leader, elects a new one, and a
   queue client fails over without losing its dequeue.

Run with::

    PYTHONPATH=src python examples/fault_tolerant_reads.py
"""

from repro.bindings.cassandra import CassandraBinding
from repro.cassandra_sim.cluster import CassandraCluster
from repro.cassandra_sim.config import CassandraConfig
from repro.core.client import CorrectableClient
from repro.core.consistency import STRONG, WEAK
from repro.core.correctable import Correctable
from repro.core.operations import read
from repro.faults import FaultInjector, cassandra_aliases, get_scenario, zookeeper_aliases
from repro.sim.environment import SimEnvironment
from repro.sim.topology import Region
from repro.zookeeper_sim.cluster import ZooKeeperCluster
from repro.zookeeper_sim.config import ZooKeeperConfig


def cassandra_replica_crash() -> None:
    print("=== Cassandra: quorum reads across a replica crash ===")
    env = SimEnvironment(seed=7)
    cluster = CassandraCluster(env, CassandraConfig.fault_tolerant())
    cluster.preload({f"item:{i}": f"price-{i}" for i in range(50)})
    client = CorrectableClient(CassandraBinding(
        cluster.add_client("shop-frontend", Region.IRL, Region.FRK,
                           fallbacks=True), strong_read_quorum=2))

    injector = FaultInjector(env, schedule=get_scenario(
        "replica-crash", at_ms=1_000.0, duration_ms=3_000.0),
        aliases=cassandra_aliases(cluster))
    injector.arm()

    completions = []

    def issue_read(index: int) -> None:
        # An ICG read: a fast preliminary view, then the quorum's final one.
        client.invoke(read(f"item:{index % 50}")).set_callbacks(
            on_final=lambda view: completions.append(
                (env.now(), view.value, view.metadata["degraded"])),
            on_error=lambda error: completions.append(
                (env.now(), None, False)))

    # One read every 200 ms for 6 simulated seconds, spanning the crash.
    for i in range(30):
        env.scheduler.schedule(i * 200.0, issue_read, i)
    env.run_until_idle()

    degraded = sum(1 for _, _, d in completions if d)
    coordinator = cluster.replica_in(Region.FRK)
    print(f"reads completed : {len(completions)}/30")
    print(f"degraded quorums: {degraded}")
    print(f"coord retries   : {coordinator.read_retries}")
    for time_ms, action, target in [(f.time_ms, f.action, f.target)
                                    for f in injector.log]:
        print(f"fault @ {time_ms:7.1f} ms: {action} {target}")
    print()


def zookeeper_leader_crash() -> None:
    print("=== ZooKeeper: queue survives a leader crash ===")
    env = SimEnvironment(seed=13)
    cluster = ZooKeeperCluster(env, leader_region=Region.IRL,
                               follower_regions=(Region.FRK, Region.VRG),
                               config=ZooKeeperConfig.fault_tolerant())
    cluster.preload_queue("/tickets", [f"ticket-{i}" for i in range(20)])
    cluster.enable_failure_detection()
    client = cluster.add_client("retailer", Region.FRK,
                                connect_region=Region.FRK, failover=True)

    injector = FaultInjector(env, schedule=get_scenario(
        "leader-crash", at_ms=1_000.0, duration_ms=5_000.0),
        aliases=zookeeper_aliases(cluster))
    injector.arm()

    sold = []

    def sell(index: int) -> None:
        # An ICG dequeue completes into its Correctable: the preliminary
        # view, then the committed one.
        dequeue = Correctable(levels=(WEAK, STRONG)).set_callbacks(
            on_final=lambda view: sold.append(view.value["item"]))
        client.submit_sink("dequeue", "/tickets", dequeue, icg=True)

    for i in range(10):
        env.scheduler.schedule(i * 600.0, sell, i)
    env.run(until=30_000.0)

    ok = [item for item in sold if item]
    new_leader = cluster.current_leader()
    print(f"dequeues completed: {len(ok)}/10")
    print(f"tickets sold      : {ok}")
    print(f"old leader        : {cluster.leader.name} (crashed, rejoined)")
    print(f"current leader    : {new_leader.name} (epoch {new_leader.epoch})")
    print(f"client retries    : {client.retries}")


if __name__ == "__main__":
    cassandra_replica_crash()
    zookeeper_leader_crash()
