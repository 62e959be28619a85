"""Figure 12: selling tickets with ZooKeeper vs Correctable ZooKeeper.

Four retailers, colocated with the Frankfurt follower (the leader is in
Ireland), concurrently sell a fixed stock of tickets.  With Correctable
ZooKeeper the retailers confirm purchases from the preliminary (locally
simulated) dequeue while plenty of stock remains, and only wait for the
final, atomic result for the last ``threshold`` tickets.  Shapes to
reproduce:

* CZK purchase latency is low (≈ local RTT) for all but the last
  ``threshold`` tickets, where it jumps to the ZK commit latency;
* vanilla ZooKeeper pays the full commit latency (plus contention
  variability) for every ticket;
* nothing is oversold: confirmed purchases never exceed the stock.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.apps.tickets import TicketSeller
from repro.bench.common import DrainCheck
from repro.bench.sweep import JobsSpec, SweepPoint, make_points, run_sweep
from repro.bindings.zookeeper import ZooKeeperQueueBinding
from repro.core.client import CorrectableClient
from repro.metrics.latency import LatencyRecorder
from repro.metrics.summary import format_table
from repro.sim.environment import SimEnvironment
from repro.sim.topology import Region
from repro.zookeeper_sim.cluster import ZooKeeperCluster


def _sell_out(system: str, stock: int, retailers: int, threshold: int,
              seed: int) -> Dict:
    """Run one sell-out: ``retailers`` concurrently purchase until sold out."""
    drain = DrainCheck(f"fig12 {system} stock={stock}")
    env = SimEnvironment(seed=seed)
    cluster = ZooKeeperCluster(env, leader_region=Region.IRL,
                               follower_regions=(Region.FRK, Region.VRG))
    cluster.preload_queue("/tickets", [f"ticket-{i}" for i in range(stock)])
    use_icg = system == "CZK"
    purchases: List[Dict] = []
    sellers: List[TicketSeller] = []

    def _run_retailer(seller: TicketSeller) -> None:
        def _buy() -> None:
            seller.purchase_ticket(_bought, use_icg=use_icg)

        def _bought(outcome) -> None:
            if outcome.sold_out:
                return
            purchases.append({
                "ticket": outcome.ticket,
                "latency_ms": outcome.latency_ms,
                "used_preliminary": outcome.used_preliminary,
                "remaining": outcome.remaining,
            })
            _buy()

        _buy()

    for index in range(retailers):
        node = cluster.add_client(f"retailer-{index}", region=Region.FRK,
                                  connect_region=Region.FRK, colocated=True)
        seller = TicketSeller(
            CorrectableClient(ZooKeeperQueueBinding(node, "/tickets")),
            queue_path="/tickets", threshold=threshold)
        sellers.append(seller)
        _run_retailer(seller)
    env.run_until_idle()
    drain.verify(cluster)

    # Order purchases by completion order to obtain the per-ticket series.
    series = [{"ticket_number": i + 1, **purchase}
              for i, purchase in enumerate(purchases)]
    early = LatencyRecorder("early")
    last = LatencyRecorder("last")
    for entry in series:
        if entry["ticket_number"] <= stock - threshold:
            early.record(entry["latency_ms"])
        else:
            last.record(entry["latency_ms"])
    return {
        "system": system,
        "stock": stock,
        "threshold": threshold,
        "tickets_sold": len(series),
        "oversold": max(0, len(series) - stock),
        "series": series,
        "early_mean_ms": early.mean(),
        "last_mean_ms": last.mean() if last.count else early.mean(),
        "preliminary_purchases": sum(
            1 for entry in series if entry["used_preliminary"]),
    }


def build_fig12_points(stock: int = 500, retailers: int = 4,
                       threshold: int = 20,
                       systems: Iterable[str] = ("CZK", "ZK"),
                       seed: int = 42) -> List[SweepPoint]:
    """One sweep point per system's sell-out run."""
    return make_points("fig12", (
        ({"system": system},
         dict(system=system, stock=stock, retailers=retailers,
              threshold=threshold, seed=seed))
        for system in systems))


def run_fig12_point(point: SweepPoint) -> Dict:
    return _sell_out(**point.kwargs)


def run_fig12(stock: int = 500, retailers: int = 4, threshold: int = 20,
              systems: Iterable[str] = ("CZK", "ZK"),
              seed: int = 42, jobs: JobsSpec = 1) -> Dict[str, Dict]:
    """Regenerate the Figure 12 per-ticket latency series for CZK and ZK."""
    points = build_fig12_points(stock=stock, retailers=retailers,
                                threshold=threshold, systems=systems,
                                seed=seed)
    sweep = run_sweep(points, run_fig12_point, jobs=jobs)
    return {point.label("system"): record
            for point, record in zip(points, sweep.records())}


def format_fig12(results: Dict[str, Dict]) -> str:
    rows = []
    for system, result in results.items():
        rows.append([
            system, result["stock"], result["tickets_sold"],
            result["oversold"], result["preliminary_purchases"],
            result["early_mean_ms"], result["last_mean_ms"],
        ])
    return format_table(
        ["system", "stock", "sold", "oversold", "prelim purchases",
         "mean latency before last-N (ms)", "mean latency last-N (ms)"],
        rows,
        title="Figure 12 — ticket purchase latency (4 retailers, FRK follower, IRL leader)")
