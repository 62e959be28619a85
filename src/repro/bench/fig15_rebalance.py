"""Figure 15 (beyond the paper): reads under live ring rebalancing.

The paper's experiments run against a fixed replica set.  This harness
measures what ICG reads look like while the replica set *changes*: a node
joins (bootstrap → stream → announce → serve) or decommissions (stream out →
retire) in the middle of an open-loop run, and every completed operation is
classified against the rebalance window into a *before* / *during* / *after*
phase.  The grid crosses cluster size × key skew × rebalance event:

* **cluster size** — more nodes means more, smaller key ranges move, so the
  disruption is shorter per range but touches more sources;
* **key skew** — YCSB Zipfian with a dialled ``theta`` (``uniform``,
  ``zipf-0.99``, ``zipf-1.2``); hot-partition regimes concentrate traffic on
  few keys, so a range move either misses the hot set entirely or hits all
  of it;
* **event** — ``join`` adds ``cassandra-{N}-{region}`` to the ring,
  ``decommission`` retires the last node.

Every point also verifies the safety property the protocol promises: after
the run drains, **no acknowledged write may be lost** — for every write the
client saw acked, the post-rebalance owner set must hold a version at least
that new (``lost_acked_writes`` must be 0; forwarded writes plus range
streaming are what make it hold).

Shapes to expect: *before* and *after* rows match a static ring; *during*
rows show a modest final-latency tail (stream batches compete with
foreground traffic on the source replicas, and a handful of operations pay
a stale-epoch retry or a client failover) and, under skew, a staleness
bump while the hot keys' new owners are still catching up.
"""

from __future__ import annotations

from dataclasses import replace
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Sequence,
)

from repro.bench.common import DrainCheck, cassandra_config_for
from repro.cassandra_sim.client import CassandraClient
from repro.cassandra_sim.storage import resolve
from repro.core.cluster_spec import ClusterSpec
from repro.metrics.latency import nearest_rank_p99
from repro.sim.rand import derive_rng
from repro.sim.topology import Region, round_robin_regions
from repro.workloads.arrivals import make_arrival_process
from repro.workloads.runner import OpenLoopRunner
from repro.workloads.ycsb import OperationGenerator, workload_by_name

if TYPE_CHECKING:  # pragma: no cover - the sweep engine loads on first run
    from repro.bench.sweep import SweepPoint

PHASES = ("before", "during", "after")

#: Client regions driving the run (distinct coordinators, as in fig14).
CLIENT_REGIONS = (Region.IRL, Region.FRK)


def skew_workload(skew: str, workload: str = "A"):
    """Map a skew label to a :class:`WorkloadSpec` (``zipf-{theta}`` dials
    the Zipfian exponent; ``uniform`` ignores it)."""
    base = workload_by_name(workload)
    if skew == "uniform":
        return base.with_distribution("uniform")
    if skew.startswith("zipf-"):
        return base.with_distribution("zipfian").with_skew(
            float(skew[len("zipf-"):]))
    raise ValueError(f"unknown skew label {skew!r}; "
                     f"use 'uniform' or 'zipf-<theta>'")


class _JournaledOp:
    """One operation's completion sink: journals the completion, then
    forwards it into the runner's record (``sink``).

    A read's journal entry carries its final and preliminary latency,
    whether a preliminary arrived and whether it diverged from the final
    view; an acked update's timestamp raises the key's entry in ``acked``.
    """

    __slots__ = ("sink", "key", "update", "clock", "samples", "acked", "had",
                 "prelim_value", "prelim_latency")

    def __init__(self, sink: Any, key: str, update: bool,
                 clock: Callable[[], float], samples: List[Dict[str, Any]],
                 acked: Dict[str, Any]) -> None:
        self.sink = sink
        self.key = key
        self.update = update
        self.clock = clock
        self.samples = samples
        self.acked = acked
        self.had = False
        self.prelim_value = None
        self.prelim_latency = None

    def deliver_preliminary(self, value: Any, stamp: Any, latency_ms: float,
                            source: Optional[str] = None) -> None:
        self.had = True
        self.prelim_value = value
        self.prelim_latency = latency_ms
        self.sink.deliver_preliminary(value, stamp, latency_ms, source)

    def deliver_final(self, value: Any, stamp: Any, latency_ms: float,
                      is_confirmation: bool = False,
                      degraded: bool = False) -> None:
        if self.update:
            if stamp is not None:
                acked = self.acked
                previous = acked.get(self.key)
                if previous is None or stamp > previous:
                    acked[self.key] = stamp
            self.samples.append({"t": self.clock(), "op": "update",
                                 "final_latency_ms": latency_ms,
                                 "failed": False})
        else:
            had = self.had
            self.samples.append({
                "t": self.clock(), "op": "read",
                "final_latency_ms": latency_ms,
                "preliminary_latency_ms": self.prelim_latency,
                "had_preliminary": had,
                "diverged": had and self.prelim_value != value,
                "failed": False})
        self.sink.deliver_final(value, stamp, latency_ms, is_confirmation,
                                degraded)

    def deliver_error(self, error: Any, latency_ms: float) -> None:
        if self.update:
            self.samples.append({"t": self.clock(), "op": "update",
                                 "final_latency_ms": latency_ms,
                                 "failed": True})
        else:
            self.samples.append({
                "t": self.clock(), "op": "read",
                "final_latency_ms": latency_ms,
                "preliminary_latency_ms": self.prelim_latency,
                "had_preliminary": self.had, "diverged": False,
                "failed": True})
        self.sink.deliver_error(error, latency_ms)


def make_rebalance_issue(clients: Sequence[CassandraClient],
                         clock: Callable[[], float],
                         samples: List[Dict[str, Any]],
                         acked: Dict[str, Any]) -> Callable:
    """A kv ``issue`` function over several clients that journals completions.

    Operations rotate over ``clients`` by the runner's session id (user ``k``
    issues through client ``k % len(clients)``).  Reads take the CC2 ICG
    path (preliminary at R=1, final at R=2); updates write at W=1.  Every
    completion is appended to ``samples`` with its completion instant, so
    the caller can classify it against the rebalance window after the run;
    every acked update records its write timestamp in ``acked``, the input
    to the zero-lost-acknowledged-writes check.
    """
    rotation = {"next": 0}

    def _issue(op_type: str, key: str, value: Optional[str], sink: Any,
               session_id: Optional[int] = None) -> None:
        if session_id is None:
            session_id = rotation["next"]
            rotation["next"] += 1
        client = clients[session_id % len(clients)]
        update = op_type == "update"
        journaled = _JournaledOp(sink, key, update, clock, samples, acked)
        if update:
            client.lean_write(key, value, 1, journaled)
        else:
            sink.icg = True
            client.lean_read(key, 2, True, journaled)

    return _issue


def count_lost_acked_writes(cluster, acked: Dict[str, Any]) -> int:
    """Acked writes the post-rebalance owner set no longer holds.

    For every key the client saw an ack for, resolve the newest version
    across the key's *current* replicas; the write is lost if every owner's
    version is older than the acked timestamp.  Zero is the acceptance
    criterion: bootstrap forwarding plus range streaming must hand every
    acknowledged write to the new owners.
    """
    lost = 0
    for key, timestamp in acked.items():
        versions = [cluster.replica_by_name(name).table.get(key)
                    for name in cluster.partitioner.replicas_for(key)]
        newest = resolve(versions)
        if newest is None or newest.timestamp < timestamp:
            lost += 1
    return lost


def _phase_stats(samples: List[Dict[str, Any]],
                 start: float, end: float) -> Dict[str, Dict[str, float]]:
    """Classify completions against the rebalance window and summarize."""
    buckets: Dict[str, List[Dict[str, Any]]] = {p: [] for p in PHASES}
    for sample in samples:
        if sample["t"] < start:
            phase = "before"
        elif sample["t"] <= end:
            phase = "during"
        else:
            phase = "after"
        buckets[phase].append(sample)
    stats: Dict[str, Dict[str, float]] = {}
    for phase, rows in buckets.items():
        finals = [r["final_latency_ms"] for r in rows if not r.get("failed")]
        prelims = [r["preliminary_latency_ms"] for r in rows
                   if r.get("preliminary_latency_ms") is not None]
        with_prelim = sum(1 for r in rows if r.get("had_preliminary"))
        diverged = sum(1 for r in rows if r.get("diverged"))
        stats[phase] = {
            "ops": len(rows),
            "final_mean_ms": sum(finals) / len(finals) if finals else 0.0,
            "final_p99_ms": nearest_rank_p99(finals),
            "prelim_mean_ms": sum(prelims) / len(prelims) if prelims else 0.0,
            "staleness_pct": (100.0 * diverged / with_prelim
                              if with_prelim else 0.0),
            "failed": sum(1 for r in rows if r.get("failed")),
        }
    return stats


# ---------------------------------------------------------------------------
# one grid cell
# ---------------------------------------------------------------------------

def run_fig15_point(point: SweepPoint) -> Dict:
    """Run one (nodes, skew, event) cell of the Figure 15 grid."""
    kwargs = point.kwargs
    nodes = kwargs["nodes"]
    skew = kwargs["skew"]
    event = kwargs["event"]
    seed = kwargs["seed"]
    label = f"fig15-{nodes}-{skew}-{event}"
    drain = DrainCheck(label)

    # Smaller stream batches than the config default: more, shorter transfer
    # rounds widen the window in which streaming and foreground traffic
    # genuinely interleave (the regime the figure measures).
    config = replace(cassandra_config_for("CC2"),
                     stream_batch_items=kwargs["stream_batch_items"])
    built = ClusterSpec(nodes=nodes, config=config, seed=seed,
                        record_count=kwargs["record_count"],
                        vnodes_per_node=kwargs["vnodes"],
                        client_regions=CLIENT_REGIONS,
                        preload=kwargs["preload"],
                        client_fallbacks=True).build()
    cluster = built.cluster

    samples: List[Dict[str, Any]] = []
    acked: Dict[str, Any] = {}
    issue = make_rebalance_issue(
        [built.client_in(region) for region in CLIENT_REGIONS],
        built.env.scheduler.now, samples, acked)

    workload = skew_workload(skew, kwargs["workload"])
    runner = OpenLoopRunner(
        scheduler=built.env.scheduler, issue=issue,
        make_generator=lambda session_id: OperationGenerator.seeded(
            workload, built.dataset, seed, f"{label}-s{session_id}"),
        arrivals=make_arrival_process(
            "poisson", kwargs["rate_ops_s"],
            derive_rng(seed, f"{label}:arrivals")),
        sessions=kwargs["sessions"], duration_ms=kwargs["duration_ms"],
        warmup_ms=kwargs["warmup_ms"], cooldown_ms=kwargs["cooldown_ms"],
        label=label, max_in_flight=kwargs["max_in_flight"],
        policy="queue", queue_limit=kwargs["queue_limit"])

    regions = round_robin_regions(nodes)
    if event == "join":
        joiner_region = round_robin_regions(nodes + 1)[-1]
        operation = cluster.join_node(f"cassandra-{nodes}-{joiner_region}",
                                      joiner_region,
                                      at_ms=kwargs["event_at_ms"])
    elif event == "decommission":
        # The last node is never a client contact (contacts are the first
        # replicas of the FRK and VRG regions), so the event exercises the
        # data path rather than client failover alone.
        operation = cluster.decommission_node(
            f"cassandra-{nodes - 1}-{regions[-1]}",
            at_ms=kwargs["event_at_ms"])
    else:
        raise ValueError(f"unknown rebalance event {event!r}")

    result = runner.run()
    # Drain replication, forwarding, and any straggling stream traffic so
    # the loss check inspects the settled post-rebalance state.
    built.env.run_until_idle()
    drain.verify(cluster)
    if not operation.done:
        raise RuntimeError(f"{label}: rebalance did not complete "
                           f"(started_at={operation.started_at})")

    phases = _phase_stats(samples, operation.started_at,
                          operation.completed_at)
    record: Dict[str, Any] = {
        "nodes": nodes,
        "skew": skew,
        "event": event,
        "rebalance_ms": operation.duration_ms(),
        "ranges_moved": operation.change.total_ranges(),
        "keys_streamed": cluster.total("keys_streamed_in"),
        "stale_retries": cluster.total("stale_epoch_retries"),
        "writes_forwarded": cluster.total("writes_forwarded"),
        "client_retries": sum(c.retries for c in cluster.clients),
        "acked_writes": len(acked),
        "lost_acked_writes": count_lost_acked_writes(cluster, acked),
        "failed_ops": result.failed_ops,
        "measured_ops": result.measured_ops,
        "ring_version": cluster.partitioner.version,
    }
    for phase in PHASES:
        for metric, value in phases[phase].items():
            record[f"{phase}_{metric}"] = value
    return record


# ---------------------------------------------------------------------------
# the grid
# ---------------------------------------------------------------------------

def cells(nodes: Sequence[int], skews: Iterable[str], events: Iterable[str],
          **base: Any):
    """The (cluster size × key skew × rebalance event) grid.

    ``preload=False`` skips writing the initial dataset onto the ring, so
    a cell's set-up cost is the key stream rather than an O(record_count)
    preload; reads of untouched keys return not-found, which the harness
    does not count as a failure.
    """
    return (({"nodes": node_count, "skew": skew, "event": event},
             dict(base, nodes=node_count, skew=skew, event=event))
            for node_count in nodes for skew in skews for event in events)


#: The tier-2 multi-million-key cell, as overrides of the figure's
#: parameters: one (6-node, zipf-0.99, join) cell with about two million
#: rows per replica (see :mod:`repro.cassandra_sim.storage` for what a row
#: costs).  The preload bulk-loads every replica's versions column, the
#: join streams multi-hundred-thousand-key ranges (larger stream batches
#: keep the event count proportionate), and the standard
#: zero-lost-acked-writes audit runs over the rebalance.  Slow-marked in
#: the test suite; not part of the committed figure.
MILLION_KEY_CELL = dict(
    nodes=(6,), skews=("zipf-0.99",), events=("join",), sessions=100,
    duration_ms=4_000.0, warmup_ms=500.0, cooldown_ms=250.0,
    event_at_ms=1_500.0, record_count=4_000_000, stream_batch_items=512)


def format_fig15(records: List[Dict]) -> str:
    """Render the figure: per-phase latency table plus a rebalance summary."""
    from repro.metrics.summary import format_table
    phase_headers = ["nodes", "skew", "event", "phase", "ops",
                     "prelim mean (ms)", "final mean (ms)", "final p99 (ms)",
                     "staleness (%)", "failed"]
    phase_rows = []
    for record in records:
        for phase in PHASES:
            phase_rows.append([
                record["nodes"], record["skew"], record["event"], phase,
                record[f"{phase}_ops"],
                record[f"{phase}_prelim_mean_ms"],
                record[f"{phase}_final_mean_ms"],
                record[f"{phase}_final_p99_ms"],
                record[f"{phase}_staleness_pct"],
                record[f"{phase}_failed"],
            ])
    summary_columns = ["nodes", "skew", "event", "rebalance_ms",
                       "ranges_moved", "keys_streamed", "stale_retries",
                       "writes_forwarded", "client_retries", "acked_writes",
                       "lost_acked_writes"]
    summary_headers = ["nodes", "skew", "event", "rebalance (ms)", "ranges",
                       "keys streamed", "stale retries", "fwd writes",
                       "client retries", "acked writes", "lost acked"]
    lines = [
        format_table(
            phase_headers, phase_rows,
            title=("Figure 15 — read latency and staleness before/during/"
                   "after a live ring rebalance (open-loop Poisson load, "
                   "cluster size x key skew x join/decommission)")),
        "",
        format_table(
            summary_headers,
            [[record[c] for c in summary_columns] for record in records],
            title=("Figure 15 (cont.) — rebalance mechanics per cell; "
                   "'lost acked' must be 0: every acknowledged write "
                   "survives the ownership change")),
    ]
    return "\n".join(lines)
