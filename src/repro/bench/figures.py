"""Every figure as data: one table the CLI, the tests and ``benchmarks/``
regenerate through.

A :class:`Figure` names its sweep family, the generator of its grid cells,
the experiment one point runs, the renderer and its parameters.  ``full``
holds every parameter once, at the scale of the committed table under
``benchmarks/results/``; ``quick`` is what ``--quick`` overrides on top.
Any other override names a parameter of ``full`` or is refused::

    FIG06.render(FIG06.run(jobs=2))
    FIG15.run(**MILLION_KEY_CELL)

The family string is part of every point's seed (see
:func:`repro.bench.sweep.point_seed`), so it never changes.  The figure
modules do not import this one, so loading a harness does not load the
sweep engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Tuple

from repro.bench import ablations
from repro.bench import fig05_single_latency as fig05
from repro.bench import fig06_load as fig06
from repro.bench import fig07_divergence as fig07
from repro.bench import fig08_bandwidth as fig08
from repro.bench import fig09_zk_latency as fig09
from repro.bench import fig10_zk_bandwidth as fig10
from repro.bench import fig11_apps as fig11
from repro.bench import fig12_tickets as fig12
from repro.bench import fig13_faults as fig13
from repro.bench import fig14_open_loop as fig14
from repro.bench import fig15_rebalance as fig15
from repro.bench import fig16_txn as fig16
from repro.bench.sweep import JobsSpec, SweepPoint, make_points, run_sweep
from repro.sim.topology import Region


def _records(points: List[SweepPoint], records: List[Any]) -> List[Any]:
    return records


def _system_cells(systems: Iterable[str], **base: Any):
    """One cell per system label, for the figures keyed by system."""
    return (({"system": system}, dict(base, system=system))
            for system in systems)


def _by_system(points: List[SweepPoint],
               records: List[Any]) -> Dict[str, Any]:
    return {point.label("system"): record
            for point, record in zip(points, records)}


@dataclass(frozen=True)
class Figure:
    """One figure: its grid, the experiment a point runs, its renderer and
    its parameters."""

    family: str
    cells: Callable[..., Iterable[Tuple[Dict[str, Any], Dict[str, Any]]]]
    run_point: Callable[[SweepPoint], Any]
    render: Callable[[Any], str]
    full: Dict[str, Any]
    quick: Dict[str, Any] = field(default_factory=dict)
    #: ``(points, records) -> result``: the record list unless the figure
    #: keys or merges its records.
    collect: Callable[[List[SweepPoint], List[Any]], Any] = _records

    def points(self, **overrides: Any) -> List[SweepPoint]:
        unknown = sorted(set(overrides) - set(self.full))
        if unknown:
            raise TypeError(f"{self.family} has no parameter {unknown}; "
                            f"choose from {sorted(self.full)}")
        return make_points(self.family,
                           self.cells(**{**self.full, **overrides}))

    def run(self, jobs: JobsSpec = 1, **overrides: Any) -> Any:
        """Run the grid (``jobs`` worker processes; the records merge in
        grid order, so the result is the same at any count)."""
        points = self.points(**overrides)
        return self.collect(
            points, run_sweep(points, self.run_point, jobs=jobs).records())


#: The quick run window of the closed-loop figures and of fig14.
_QUICK_WINDOW = dict(duration_ms=4_000.0, warmup_ms=1_000.0,
                     cooldown_ms=500.0)
#: The divergence experiment's (workload, request distribution) mixes,
#: which Figure 8 measures bandwidth under too.
_MIXES = (("A", "latest"), ("A", "zipfian"),
          ("B", "latest"), ("B", "zipfian"))

FIG05 = Figure(
    "fig05", _system_cells, fig05.run_fig05_point, fig05.format_fig05,
    full=dict(systems=("C1", "C2", "C3", "CC2", "CC3"), samples=200,
              record_count=200, seed=42),
    quick=dict(samples=40, record_count=50), collect=_by_system)
FIG06 = Figure(
    "fig06", fig06.cells, fig06.run_fig06_point, fig06.format_fig06,
    full=dict(workloads=("A", "B", "C"), systems=("C1", "C2", "CC2"),
              thread_counts=(2, 6, 12, 24, 48), duration_ms=8_000.0,
              warmup_ms=2_000.0, cooldown_ms=1_000.0, record_count=1_000,
              seed=42),
    quick=dict(_QUICK_WINDOW, workloads=("A",), thread_counts=(2, 6),
               record_count=300))
FIG07 = Figure(
    "fig07", fig07.cells, fig07.run_fig07_point, fig07.format_fig07,
    full=dict(configs=_MIXES, thread_counts=(10, 20, 40, 100),
              duration_ms=8_000.0, warmup_ms=2_000.0, cooldown_ms=1_000.0,
              record_count=1_000, seed=42),
    quick=dict(_QUICK_WINDOW, configs=(("A", "latest"), ("B", "latest")),
               thread_counts=(10,)))
FIG08 = Figure(
    "fig08", fig08.cells, fig08.run_fig08_point, fig08.format_fig08,
    full=dict(configs=_MIXES, systems=("C1", "CC2", "*CC2"), threads=40,
              duration_ms=8_000.0, warmup_ms=2_000.0, cooldown_ms=1_000.0,
              record_count=1_000, seed=42),
    quick=dict(_QUICK_WINDOW, configs=(("A", "latest"),), threads=10),
    collect=fig08.merge_overheads)
FIG09 = Figure(
    "fig09", fig09.cells, fig09.run_fig09_point, fig09.format_fig09,
    full=dict(configurations=(
        ("follower-FRK / leader-IRL", Region.IRL, Region.FRK),
        ("leader-IRL / leader-IRL", Region.IRL, Region.IRL),
        ("follower-IRL / leader-VRG", Region.VRG, Region.IRL),
        ("leader-VRG / leader-VRG", Region.VRG, Region.VRG)),
        samples=100, seed=42),
    quick=dict(samples=30))
FIG10 = Figure(
    "fig10", fig10.cells, fig10.run_fig10_point, fig10.format_fig10,
    full=dict(stocks=(500, 1000), client_counts=(1, 4, 12), seed=42),
    quick=dict(stocks=(100, 200), client_counts=(1, 4)),
    collect=fig10.merge_savings)
FIG11 = Figure(
    "fig11", fig11.cells, fig11.run_fig11_point, fig11.format_fig11,
    full=dict(apps=("ads", "twissandra"), workloads=("A", "B", "C"),
              systems=("C2", "CC2"), thread_counts=(1, 3),
              duration_ms=6_000.0, warmup_ms=1_500.0, cooldown_ms=1_000.0,
              profile_count=1_000, ref_count=2_000, seed=42),
    quick=dict(apps=("ads",), workloads=("B",), thread_counts=(2,),
               duration_ms=3_000.0, warmup_ms=800.0, cooldown_ms=400.0,
               profile_count=100, ref_count=200))
FIG12 = Figure(
    "fig12", _system_cells, fig12.run_fig12_point, fig12.format_fig12,
    full=dict(systems=("CZK", "ZK"), stock=500, retailers=4, threshold=20,
              seed=42),
    quick=dict(stock=120), collect=_by_system)
FIG13 = Figure(
    "fig13", fig13.cells, fig13.run_fig13_point, fig13.format_fig13,
    full=dict(scenarios=("baseline", "replica-crash", "wan-partition",
                         "flapping-link", "slow-follower"),
              workload="B", threads_per_client=4, duration_ms=12_000.0,
              warmup_ms=3_000.0, cooldown_ms=1_000.0, record_count=300,
              seed=42,
              zk=dict(crash_at_ms=4_000.0, crash_duration_ms=6_000.0,
                      threads_per_client=2, duration_ms=15_000.0,
                      warmup_ms=2_000.0, cooldown_ms=1_000.0,
                      queue_depth=5_000)),
    quick=dict(scenarios=("baseline", "replica-crash", "wan-partition"),
               threads_per_client=2, duration_ms=6_000.0, warmup_ms=1_500.0,
               cooldown_ms=500.0, record_count=150,
               zk=dict(crash_at_ms=2_500.0, crash_duration_ms=4_000.0,
                       threads_per_client=1, duration_ms=9_000.0,
                       warmup_ms=2_000.0, cooldown_ms=1_000.0,
                       queue_depth=1_500)))
FIG14 = Figure(
    "fig14", fig14.cells, fig14.run_fig14_point, fig14.format_fig14,
    # The offered rates (ops/s) cross both bindings' saturation points:
    # about 480 ops/s for CC2 and 200 for primary-backup at 16 in flight.
    full=dict(bindings=("cassandra", "primary-backup"),
              policies=("queue", "shed"), rates=(100, 200, 400, 800),
              arrivals="poisson", sessions=1_000, max_in_flight=16,
              queue_limit=64, duration_ms=10_000.0, warmup_ms=2_000.0,
              cooldown_ms=1_000.0, record_count=500, workload="A",
              distribution="latest", seed=42),
    quick=dict(_QUICK_WINDOW, rates=(100, 400), sessions=200,
               record_count=200))
FIG15 = Figure(
    "fig15", fig15.cells, fig15.run_fig15_point, fig15.format_fig15,
    # Key skews: YCSB uniform, the YCSB Zipfian constant, and a hot
    # partition concentrating most traffic on a handful of keys.
    full=dict(nodes=(6, 12), skews=("uniform", "zipf-0.99", "zipf-1.2"),
              events=("join", "decommission"), rate_ops_s=300.0,
              sessions=200, max_in_flight=64, queue_limit=256,
              duration_ms=8_000.0, warmup_ms=1_000.0, cooldown_ms=500.0,
              event_at_ms=3_000.0, record_count=600, stream_batch_items=16,
              vnodes=None, workload="A", preload=True, seed=42),
    quick=dict(nodes=(6,), skews=("uniform", "zipf-1.2"), rate_ops_s=200.0,
               sessions=100, duration_ms=5_000.0, warmup_ms=800.0,
               cooldown_ms=400.0, event_at_ms=2_000.0, record_count=300))
FIG16 = Figure(
    "fig16", fig16.cells, fig16.run_fig16_point, fig16.format_fig16,
    # "baseline" runs no faults; more keys per transaction over the same
    # hot key range means more lock conflicts.
    full=dict(scenarios=("baseline", "coordinator-crash-mid-commit",
                         "participant-crash-after-prepare", "wan-partition"),
              txn_sizes=(1, 3), nodes=6, coordinators=2, rate_txn_s=40.0,
              duration_ms=10_000.0, fault_at_ms=4_000.0,
              fault_duration_ms=4_000.0, decision_log_ms=2.0,
              record_count=200, seed=42),
    quick=dict(scenarios=("baseline", "coordinator-crash-mid-commit",
                          "participant-crash-after-prepare"),
               txn_sizes=(2,), nodes=3, rate_txn_s=25.0, duration_ms=6_000.0,
               fault_at_ms=2_500.0, fault_duration_ms=2_500.0,
               record_count=120))

#: What ``python -m repro.bench`` regenerates, in ``all`` order.
FIGURES: Dict[str, Figure] = {figure.family: figure for figure in (
    FIG05, FIG06, FIG07, FIG08, FIG09, FIG10, FIG11, FIG12, FIG13, FIG14,
    FIG15, FIG16)}

TICKET_THRESHOLD = Figure(
    "ablation-ticket-threshold", ablations.ticket_threshold_cells,
    ablations.run_ticket_threshold_point,
    ablations.format_ticket_threshold_ablation,
    full=dict(thresholds=(0, 5, 20, 60), stock=200, retailers=4, seed=42))
VIEW_COUNT = Figure(
    "ablation-view-count", ablations.view_count_cells,
    ablations.run_view_count_point, ablations.format_view_count_ablation,
    full=dict(news_items=10, reads=50))
CONFIRMATION = Figure(
    "ablation-confirmation", ablations.confirmation_cells,
    fig08.run_fig08_point,
    ablations.format_confirmation_optimization_ablation,
    full=dict(threads=10, duration_ms=6_000.0, seed=42))

#: The ablations: benchmarked and tested, not on the command line.
ABLATIONS = (TICKET_THRESHOLD, VIEW_COUNT, CONFIRMATION)
