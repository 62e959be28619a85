"""Figure 10: bandwidth cost of dequeue operations, ZK recipe vs CZK.

The standard ZooKeeper queue recipe reads the whole child list before every
dequeue, so its per-operation message size grows with queue length and with
contention-induced retries.  Correctable ZooKeeper's server-side dequeue only
exchanges constant-size messages.  Shapes to reproduce:

* ZK bytes/op grow with the initial stock size (500 vs 1000 tickets) and with
  the number of contending clients;
* CZK bytes/op are independent of queue size and dramatically lower
  (the paper reports 44–81 % savings).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence

from repro.bench.common import DrainCheck
from repro.core.consistency import STRONG, WEAK
from repro.core.correctable import Correctable
from repro.core.views import View
from repro.metrics.bandwidth import BandwidthProbe
from repro.metrics.summary import format_table
from repro.sim.environment import SimEnvironment
from repro.sim.topology import Region
from repro.zookeeper_sim.cluster import ZooKeeperCluster
from repro.zookeeper_sim.queue_recipe import DistributedQueue

if TYPE_CHECKING:  # pragma: no cover - the sweep engine loads on first run
    from repro.bench.sweep import SweepPoint


def _drain_queue(system: str, stock: int, clients: int, seed: int) -> Dict:
    """Drain a preloaded queue with ``clients`` concurrent consumers."""
    drain = DrainCheck(f"fig10 {system} stock={stock} clients={clients}")
    env = SimEnvironment(seed=seed)
    cluster = ZooKeeperCluster(env, leader_region=Region.IRL,
                               follower_regions=(Region.FRK, Region.VRG))
    cluster.preload_queue("/tickets", [f"ticket-{i}" for i in range(stock)])
    consumers = [
        cluster.add_client(f"consumer-{i}", region=Region.FRK,
                           connect_region=Region.FRK, colocated=True)
        for i in range(clients)
    ]
    probe = BandwidthProbe(env.network, [c.name for c in consumers],
                           [s.name for s in cluster.servers])
    probe.start()
    stats = {"dequeued": 0, "operations": 0}

    def _consume_with(queue: DistributedQueue) -> None:
        def _dequeued(view: View) -> None:
            stats["operations"] += 1
            if view.value["item"] is not None:
                stats["dequeued"] += 1
                _next()
            # An empty queue stops this consumer; so does an error.

        def _failed(error: BaseException) -> None:
            stats["operations"] += 1

        def _next() -> None:
            # Only the committed answer counts, but a CZK dequeue also
            # delivers its ICG preliminary: two levels.
            correctable = Correctable(levels=(WEAK, STRONG)).set_callbacks(
                on_final=_dequeued, on_error=_failed)
            if system == "ZK":
                queue.dequeue_recipe(correctable)
            else:
                queue.client.submit_sink("dequeue", queue.queue_path,
                                         correctable, icg=True)

        _next()

    queues = [DistributedQueue(consumer, "/tickets") for consumer in consumers]
    for queue in queues:
        _consume_with(queue)
    env.run_until_idle()
    drain.verify(cluster)
    probe.stop()
    return {
        "system": system,
        "stock": stock,
        "clients": clients,
        "kb_per_op": probe.kilobytes_per_op(max(1, stats["dequeued"])),
        "dequeued": stats["dequeued"],
        "operations": stats["operations"],
        "retries": sum(queue.retries for queue in queues),
    }


def cells(stocks: Iterable[int], client_counts: Sequence[int], seed: int):
    """One cell per (stock, clients, system) drain."""
    return (({"stock": stock, "clients": clients, "system": system},
             dict(system=system, stock=stock, clients=clients, seed=seed))
            for stock in stocks
            for clients in client_counts
            for system in ("ZK", "CZK"))


def run_fig10_point(point: SweepPoint) -> Dict:
    return _drain_queue(**point.kwargs)


def merge_savings(points: List[SweepPoint],
                  records: List[Dict]) -> List[Dict]:
    """Fill ``saving_vs_zk_pct`` by pairing each CZK drain with its ZK twin."""
    zk_kb: Dict = {}
    for record in records:
        key = (record["stock"], record["clients"])
        if record["system"] == "ZK":
            zk_kb[key] = record["kb_per_op"]
            record["saving_vs_zk_pct"] = 0.0
        else:
            saving = 0.0
            if zk_kb.get(key, 0.0) > 0:
                saving = 100.0 * (1.0 - record["kb_per_op"] / zk_kb[key])
            record["saving_vs_zk_pct"] = saving
    return records


def format_fig10(records: List[Dict]) -> str:
    rows = [[r["stock"], r["clients"], r["system"], r["kb_per_op"],
             r["dequeued"], r["retries"], r["saving_vs_zk_pct"]]
            for r in records]
    return format_table(
        ["stock", "clients", "system", "kB/op", "dequeued", "retries",
         "saving vs ZK (%)"],
        rows,
        title="Figure 10 — dequeue bandwidth: ZK recipe vs Correctable ZooKeeper")
