"""Figure 16 (beyond the paper): distributed transactions under faults.

The Correctable abstraction promises more than fast reads: any operation
with a cheap-but-revocable early answer can surface it as a preliminary
view.  This harness applies that to multi-key **2PC transactions** — the
speculative ``PREPARED`` view fires when every participant voted yes, and
the final view carries the actual commit/abort outcome (see
:mod:`repro.txn`).  The grid crosses fault scenario × transaction size:

* **scenario** — ``baseline`` (no faults), ``coordinator-crash-mid-commit``
  (the active 2PC coordinator dies with decisions in flight; a standby must
  detect the silence, fence the participants with a higher epoch, read
  their logs, and drive every in-flight transaction to one outcome),
  ``participant-crash-after-prepare`` (a participant goes silent holding
  prepared transactions; the coordinator must block rather than presume
  abort, and redeliver the decision after restart), and ``wan-partition``
  (the coordinator loses a region of participants mid-protocol);
* **transaction size** — keys per transaction; more keys means more
  participants per transaction, more lock conflicts, and a wider blast
  radius per fault.

Reported per cell: commit throughput and latency, abort rate,
**prepared-view accuracy** (how often the speculative PREPARED view's
"will commit" turned out true), **time-to-recover** for coordinator
takeovers, and the retry/redirect/breaker traffic the fault provoked.

Every cell also runs the **atomicity audit**
(:meth:`repro.txn.TxnFabric.assert_atomic`): no transaction may be
committed on one participant and aborted on another, every client-acked
commit must be durably applied on every owner, aborted transactions must
touch no replica table, and a healed, drained run may leave no locks or
in-doubt transactions behind.  A violation fails the cell — the figure is
as much a correctness harness as a performance one.

Shapes to expect: the baseline row commits everything it doesn't abort for
lock conflicts, with prepared-view accuracy 100 %; coordinator-crash rows
show one takeover, a time-to-recover around the detection timeout plus a
probe round trip, a latency tail from transactions that waited out the
failover, and (rarely) a prepared→abort mismatch when the crash lands
inside the decision-log window; participant-crash rows trade aborts for
blocked time (the protocol refuses to guess); wan-partition rows abort the
transactions that straddle the cut until it heals.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Sequence

from repro.bench.common import DrainCheck
from repro.core.cluster_spec import ClusterSpec
from repro.faults import FaultInjector, get_scenario
from repro.metrics.latency import nearest_rank_p99
from repro.metrics.summary import format_table
from repro.sim.rand import derive_rng
from repro.txn import TxnConfig, build_txn_fabric, txn_aliases
from repro.workloads.arrivals import make_arrival_process
from repro.workloads.runner import OpenLoopRunner

if TYPE_CHECKING:  # pragma: no cover - the sweep engine loads on first run
    from repro.bench.sweep import SweepPoint


class _TxnGenerator:
    """The cell's one session: each transaction writes ``keys_per_txn``
    distinct dataset keys, keys and values drawn from ``rng``."""

    def __init__(self, rng: random.Random, keys: Sequence[str],
                 keys_per_txn: int) -> None:
        self.rng = rng
        self.keys = keys
        self.keys_per_txn = keys_per_txn

    def next_operation(self):
        rng, keys = self.rng, self.keys
        chosen = sorted(rng.sample(range(len(keys)), self.keys_per_txn))
        return "update", None, {keys[i]: f"txn-val-{rng.randrange(1 << 30)}"
                                for i in chosen}


def run_fig16_point(point: SweepPoint) -> Dict:
    """Run one (scenario × txn size) cell of the Figure 16 grid."""
    record, _env = run_fig16_cell(**point.kwargs)
    return record


def run_fig16_cell(**kwargs: Any):
    """Run one cell and return ``(record, env)``.

    The environment rides along for callers that need more than the figure
    record — the perf harness counts its executed events.
    """
    scenario_name = kwargs["scenario"]
    keys_per_txn = kwargs["keys_per_txn"]
    seed = kwargs["seed"]
    label = f"fig16-{scenario_name}-k{keys_per_txn}"

    drain = DrainCheck(label)
    config = TxnConfig(decision_log_ms=kwargs["decision_log_ms"])
    built = ClusterSpec(nodes=kwargs["nodes"], seed=seed,
                        record_count=kwargs["record_count"],
                        client_regions=()).build()
    fabric = build_txn_fabric(built, config=config,
                              coordinator_count=kwargs["coordinators"])
    manager = fabric.manager

    description = "no faults (reference)"
    injector = None
    if scenario_name != "baseline":
        scenario = get_scenario(scenario_name,
                                at_ms=kwargs["fault_at_ms"],
                                duration_ms=kwargs["fault_duration_ms"])
        description = scenario.description
        injector = FaultInjector(built.env, schedule=scenario,
                                 aliases=txn_aliases(fabric))

    # Open-loop transaction arrivals at a fixed rate, all from one session,
    # so its label-derived stream draws every transaction's keys and values
    # in arrival order: the schedule is a pure function of the cell's
    # kwargs.  Each transaction completes into the runner's record.
    def issue(op_type: str, key: Any, writes: Dict[str, str], sink: Any,
              session_id: int) -> None:
        manager.execute_sink(writes, sink)

    runner = OpenLoopRunner(
        scheduler=built.env.scheduler, issue=issue,
        make_generator=lambda session_id: _TxnGenerator(
            derive_rng(seed, f"{label}:txns"), built.dataset.keys(),
            keys_per_txn),
        arrivals=make_arrival_process("uniform", kwargs["rate_txn_s"], None),
        sessions=1, duration_ms=kwargs["duration_ms"], warmup_ms=0.0,
        cooldown_ms=0.0, label=label, faults=injector)
    runner.start()
    # Run past the fault window, the heal, and every transaction deadline,
    # so the audit inspects a settled fabric (decision redelivery included).
    horizon = (kwargs["duration_ms"]
               + kwargs["fault_at_ms"] + kwargs["fault_duration_ms"]
               + config.txn_deadline_ms + 30_000.0)
    built.env.run(until=horizon)
    drain.verify(fabric)

    stats = manager.stats
    committed = len(manager.acked_commits)
    aborted = len(manager.acked_aborts)
    resolved = committed + aborted
    commit_latencies = [info["latency_ms"]
                        for info in manager.acked_commits.values()]
    accuracy = stats.accuracy()
    recover_ms = fabric.time_to_recover_ms()

    # The correctness half of the figure: any atomicity violation (or
    # undrained lock / in-doubt transaction) fails the cell outright.
    try:
        fabric.assert_atomic()
    except AssertionError as exc:
        raise RuntimeError(f"{label}: {exc}") from None

    record = {
        "scenario": scenario_name,
        "keys_per_txn": keys_per_txn,
        "description": description,
        "submitted": manager.txns_submitted,
        "committed": committed,
        "aborted": aborted,
        "unresolved": manager.failed_requests,
        "abort_rate_pct": 100.0 * aborted / resolved if resolved else 0.0,
        "commit_mean_ms": (sum(commit_latencies) / len(commit_latencies)
                           if commit_latencies else 0.0),
        "commit_p99_ms": nearest_rank_p99(commit_latencies),
        "prepared_views": stats.prepared_views,
        "prepared_matched": stats.matched,
        "prepared_mismatched": stats.mismatched,
        "prepared_unresolved": stats.unresolved,
        "prepared_accuracy_pct": (100.0 * accuracy
                                  if accuracy is not None else 0.0),
        "takeovers": fabric.total_takeovers(),
        "time_to_recover_ms": recover_ms if recover_ms is not None else 0.0,
        "client_retries": manager.retries,
        "redirects": manager.redirects_followed,
        "breaker_opens": fabric.balancer.times_opened(),
        "lock_conflicts": sum(p.lock_conflicts
                              for p in fabric.participants.values()),
        "stale_epoch_rejections": sum(
            p.stale_epoch_rejections for p in fabric.participants.values()),
        "faults_applied": len(injector.log) if injector else 0,
        "final_epoch": max(c.epoch for c in fabric.coordinators),
    }
    return record, built.env


def cells(scenarios: Sequence[str], txn_sizes: Iterable[int], **base: Any):
    """The (fault scenario × transaction size) grid.

    Every cell uses the same topology, arrival schedule and seed; only the
    fault script and transaction size differ, so rows are directly
    comparable.
    """
    return (({"scenario": scenario_name, "keys_per_txn": size},
             dict(base, scenario=scenario_name, keys_per_txn=size))
            for scenario_name in scenarios for size in txn_sizes)


def format_fig16(records: List[Dict]) -> str:
    """Render the figure: outcome/latency table plus a robustness summary."""
    outcome_columns = ["scenario", "keys_per_txn", "submitted", "committed",
                       "aborted", "unresolved", "abort_rate_pct",
                       "commit_mean_ms", "commit_p99_ms",
                       "prepared_views", "prepared_mismatched",
                       "prepared_accuracy_pct"]
    outcome_headers = ["scenario", "keys/txn", "txns", "committed", "aborted",
                       "unresolved", "abort (%)", "commit mean (ms)",
                       "commit p99 (ms)", "prepared views", "mismatched",
                       "prepared accuracy (%)"]
    summary_columns = ["scenario", "keys_per_txn", "takeovers",
                       "time_to_recover_ms", "final_epoch", "client_retries",
                       "redirects", "breaker_opens", "lock_conflicts",
                       "stale_epoch_rejections", "faults_applied"]
    summary_headers = ["scenario", "keys/txn", "takeovers", "recover (ms)",
                       "epoch", "client retries", "redirects", "breaker opens",
                       "lock conflicts", "stale epoch", "faults"]
    lines = [
        format_table(
            outcome_headers,
            [[record[c] for c in outcome_columns] for record in records],
            title=("Figure 16 — 2PC transactions with speculative PREPARED "
                   "views under injected faults (open-loop arrivals, "
                   "scenario x keys per txn; every cell passed the "
                   "atomicity audit)")),
        "",
        format_table(
            summary_headers,
            [[record[c] for c in summary_columns] for record in records],
            title=("Figure 16 (cont.) — failover mechanics per cell; "
                   "takeovers move the epoch forward and 'recover (ms)' is "
                   "detection + participant-log reconstruction")),
    ]
    for record in records:
        if record["scenario"] != "baseline" and record["keys_per_txn"] == \
                min(r["keys_per_txn"] for r in records):
            lines.append(f"  {record['scenario']}: {record['description']}")
    return "\n".join(lines)
