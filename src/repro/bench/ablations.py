"""Ablation studies for the design choices DESIGN.md calls out.

* ticket threshold — how the ticket shop's "wait for the final view below
  N remaining tickets" threshold trades purchase latency against
  overselling risk (Listing 5's THRESHOLD);
* view count — the value of a third (cached) view for the news reader:
  time to first displayed view and number of refreshes with two views
  (backup + primary) versus three (cache + backup + primary);
* confirmation optimization — bytes per operation of CC2 with and without
  the ``*CC`` confirmation optimization under a high-divergence workload
  (complements Figure 8; its points run through Figure 8's harness).

Each is a grid of sweep cells; :mod:`repro.bench.figures` holds their
parameters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Sequence

from repro.bench.fig12_tickets import _sell_out
from repro.bindings.cached_store import CachedStoreBinding
from repro.bindings.primary_backup import PrimaryBackupBinding, PrimaryBackupStore
from repro.apps.news import NewsReader
from repro.core.client import CorrectableClient
from repro.metrics.summary import format_table
from repro.sim.scheduler import Scheduler

if TYPE_CHECKING:  # pragma: no cover - the sweep engine loads on first run
    from repro.bench.sweep import SweepPoint


def ticket_threshold_cells(thresholds: Sequence[int], **base: Any):
    """One CZK sell-out per stock threshold below which retailers wait for
    the final view."""
    return (({"threshold": threshold}, dict(base, threshold=threshold))
            for threshold in thresholds)


def run_ticket_threshold_point(point: SweepPoint) -> Dict:
    outcome = _sell_out("CZK", **point.kwargs)
    return {
        "threshold": point.kwargs["threshold"],
        "mean_latency_ms": (
            sum(e["latency_ms"] for e in outcome["series"])
            / max(1, len(outcome["series"]))),
        "preliminary_purchases": outcome["preliminary_purchases"],
        "tickets_sold": outcome["tickets_sold"],
        "oversold": outcome["oversold"],
    }


def format_ticket_threshold_ablation(records: List[Dict]) -> str:
    rows = [[r["threshold"], r["mean_latency_ms"], r["preliminary_purchases"],
             r["tickets_sold"], r["oversold"]] for r in records]
    return format_table(
        ["threshold", "mean latency (ms)", "prelim purchases", "sold",
         "oversold"],
        rows, title="Ablation — ticket-shop final-view threshold")


def view_count_cells(**base: Any):
    """Two-view and three-view (cache-fronted) news reading."""
    return (({"configuration": label},
             dict(base, label=label, use_cache=use_cache))
            for label, use_cache in (("2 views (backup+primary)", False),
                                     ("3 views (cache+backup+primary)", True)))


def run_view_count_point(point: SweepPoint) -> Dict:
    """Measure one news-reader configuration (2 or 3 incremental views)."""
    reads = point.kwargs["reads"]
    scheduler = Scheduler()
    store = PrimaryBackupStore(scheduler=scheduler, replication_lag_ms=30.0)
    binding = PrimaryBackupBinding(store, scheduler=scheduler,
                                   backup_rtt_ms=20.0, primary_rtt_ms=90.0)
    if point.kwargs["use_cache"]:
        binding = CachedStoreBinding(binding, scheduler=scheduler,
                                     cache_latency_ms=0.5)
    reader = NewsReader(CorrectableClient(binding))
    reader.publish([f"story-{i}"
                    for i in range(point.kwargs["news_items"])])
    scheduler.run_until_idle()

    first_view_latencies: List[float] = []
    for _ in range(reads):
        start = scheduler.now()
        seen: List[float] = []
        reader.get_latest_news(
            refresh=lambda items, level, s=start, seen=seen:
            seen.append(scheduler.now() - s))
        scheduler.run_until_idle()
        if seen:
            first_view_latencies.append(seen[0])
    return {
        "configuration": point.kwargs["label"],
        "mean_first_view_ms": (sum(first_view_latencies)
                               / max(1, len(first_view_latencies))),
        "refreshes_per_read": reader.refreshes / reads,
    }


def format_view_count_ablation(records: List[Dict]) -> str:
    rows = [[r["configuration"], r["mean_first_view_ms"],
             r["refreshes_per_read"]] for r in records]
    return format_table(
        ["configuration", "mean first-view latency (ms)", "views per read"],
        rows, title="Ablation — number of incremental views (news reader)")


def confirmation_cells(threads: int, duration_ms: float, seed: int):
    """CC2 and *CC2 under the high-divergence A-Latest workload, as
    Figure 8 cells."""
    return (({"system": system},
             dict(system=system, workload_name="A", distribution="latest",
                  threads=threads, duration_ms=duration_ms,
                  warmup_ms=duration_ms * 0.25,
                  cooldown_ms=duration_ms * 0.125, record_count=1_000,
                  seed=seed))
            for system in ("CC2", "*CC2"))


def format_confirmation_optimization_ablation(records: List[Dict]) -> str:
    rows = [[r["system"], r["kb_per_op"], r["divergence_pct"]] for r in records]
    return format_table(["system", "kB/op", "divergence (%)"], rows,
                        title="Ablation — the *CC confirmation optimization")
