"""Command-line entry point for regenerating individual figures.

``pytest benchmarks/ --benchmark-only`` runs the whole evaluation; this CLI
is the quicker way to regenerate a single figure, optionally at reduced
scale::

    python -m repro.bench fig05
    python -m repro.bench fig07 --quick
    python -m repro.bench fig12 --seed 7
    python -m repro.bench all --quick

Every figure family regenerates its grid through the sweep engine
(:mod:`repro.bench.sweep`), so regeneration parallelizes across processes
with byte-identical output::

    python -m repro.bench fig06 --jobs 4
    python -m repro.bench all --jobs auto

It also hosts the wall-clock performance harness (see :mod:`repro.bench.perf`)::

    python -m repro.bench perf
    python -m repro.bench perf --quick --profile 25
    python -m repro.bench perf --quick --check-regression
    python -m repro.bench perf --quick --show-budget --no-save
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional, Sequence

from repro.bench.fig05_single_latency import format_fig05, run_fig05
from repro.bench.fig06_load import format_fig06, run_fig06
from repro.bench.fig07_divergence import format_fig07, run_fig07
from repro.bench.fig08_bandwidth import format_fig08, run_fig08
from repro.bench.fig09_zk_latency import format_fig09, run_fig09
from repro.bench.fig10_zk_bandwidth import format_fig10, run_fig10
from repro.bench.fig11_apps import format_fig11, run_fig11
from repro.bench.fig12_tickets import format_fig12, run_fig12
from repro.bench.fig13_faults import format_fig13, run_fig13_all
from repro.bench.fig14_open_loop import format_fig14, run_fig14
from repro.bench.fig15_rebalance import format_fig15, run_fig15
from repro.bench.fig16_txn import format_fig16, run_fig16
from repro.bench.sweep import JobsSpec, resolve_jobs

#: figure name -> (runner, formatter, full-scale kwargs, quick kwargs).
_FIGURES: Dict[str, tuple] = {
    "fig05": (run_fig05, format_fig05,
              dict(samples=200, record_count=200),
              dict(samples=40, record_count=50)),
    "fig06": (run_fig06, format_fig06,
              dict(thread_counts=(2, 6, 12, 24, 48)),
              dict(workloads=("A",), thread_counts=(2, 6),
                   duration_ms=4_000.0, warmup_ms=1_000.0, cooldown_ms=500.0,
                   record_count=300)),
    "fig07": (run_fig07, format_fig07,
              dict(thread_counts=(10, 20, 40, 100)),
              dict(configs=(("A", "latest"), ("B", "latest")),
                   thread_counts=(10,), duration_ms=4_000.0,
                   warmup_ms=1_000.0, cooldown_ms=500.0)),
    "fig08": (run_fig08, format_fig08,
              dict(threads=40),
              dict(configs=(("A", "latest"),), threads=10,
                   duration_ms=4_000.0, warmup_ms=1_000.0, cooldown_ms=500.0)),
    "fig09": (run_fig09, format_fig09,
              dict(samples=100), dict(samples=30)),
    "fig10": (run_fig10, format_fig10,
              dict(stocks=(500, 1000), client_counts=(1, 4, 12)),
              dict(stocks=(100, 200), client_counts=(1, 4))),
    "fig11": (run_fig11, format_fig11,
              dict(profile_count=1_000, ref_count=2_000),
              dict(apps=("ads",), workloads=("B",), thread_counts=(2,),
                   duration_ms=3_000.0, warmup_ms=800.0, cooldown_ms=400.0,
                   profile_count=100, ref_count=200)),
    "fig12": (run_fig12, format_fig12,
              dict(stock=500), dict(stock=120)),
    "fig13": (run_fig13_all, format_fig13,
              dict(),
              dict(scenarios=("baseline", "replica-crash", "wan-partition"),
                   threads_per_client=2, duration_ms=6_000.0,
                   warmup_ms=1_500.0, cooldown_ms=500.0, record_count=150,
                   zk=dict(duration_ms=9_000.0, crash_at_ms=2_500.0,
                           crash_duration_ms=4_000.0, threads_per_client=1,
                           queue_depth=1_500))),
    "fig14": (run_fig14, format_fig14,
              dict(),
              dict(rates=(100, 400), sessions=200, duration_ms=4_000.0,
                   warmup_ms=1_000.0, cooldown_ms=500.0, record_count=200)),
    "fig15": (run_fig15, format_fig15,
              dict(),
              dict(nodes=(6,), skews=("uniform", "zipf-1.2"),
                   rate_ops_s=200.0, sessions=100, duration_ms=5_000.0,
                   warmup_ms=800.0, cooldown_ms=400.0, event_at_ms=2_000.0,
                   record_count=300)),
    "fig16": (run_fig16, format_fig16,
              dict(),
              dict(scenarios=("baseline", "coordinator-crash-mid-commit",
                              "participant-crash-after-prepare"),
                   txn_sizes=(2,), nodes=3, rate_txn_s=25.0,
                   duration_ms=6_000.0, fault_at_ms=2_500.0,
                   fault_duration_ms=2_500.0, record_count=120)),
}


def figure_names() -> Sequence[str]:
    """Names accepted by :func:`run_figure` (besides ``all``)."""
    return tuple(_FIGURES)


def run_figure(name: str, quick: bool = False,
               seed: Optional[int] = None, jobs: JobsSpec = 1) -> str:
    """Run one figure's harness and return its rendered report.

    ``jobs`` fans the figure's sweep across processes (``"auto"`` = one per
    core); the records are merged in grid order, so the report is identical
    at any job count.
    """
    if name not in _FIGURES:
        raise KeyError(f"unknown figure {name!r}; choose from {list(_FIGURES)}")
    runner, formatter, full_kwargs, quick_kwargs = _FIGURES[name]
    kwargs = dict(quick_kwargs if quick else full_kwargs)
    if seed is not None:
        kwargs["seed"] = seed
    kwargs["jobs"] = resolve_jobs(jobs)
    return formatter(runner(**kwargs))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate figures from the Correctables paper (OSDI '16).")
    parser.add_argument("figure", choices=list(_FIGURES) + ["all", "perf"],
                        help="which figure to regenerate (or 'perf' for the "
                             "wall-clock performance harness)")
    parser.add_argument("--quick", action="store_true",
                        help="run a scaled-down configuration")
    parser.add_argument("--seed", type=int, default=None,
                        help="experiment seed (default: each harness's own)")
    parser.add_argument("--jobs", default="1", metavar="N",
                        help="run the figure's sweep points across N worker "
                             "processes ('auto' = one per core); results are "
                             "byte-identical to --jobs 1 (default: 1)")
    perf = parser.add_argument_group("perf harness (only with 'perf')")
    perf.add_argument("--profile", type=int, default=0, metavar="N",
                      help="print the cProfile top-N per scenario")
    perf.add_argument("--repeats", type=int, default=3,
                      help="timed repetitions per scenario (best is kept)")
    perf.add_argument("--label", default=None,
                      help="label for the recorded BENCH_perf.json entry")
    perf.add_argument("--perf-scenario", action="append", default=None,
                      metavar="NAME", dest="perf_scenarios",
                      help="run only this perf scenario (repeatable)")
    perf.add_argument("--output", default=None, metavar="PATH",
                      help="trajectory file (default: ./BENCH_perf.json)")
    perf.add_argument("--no-save", action="store_true",
                      help="measure and print without recording an entry")
    perf.add_argument("--check-regression", action="store_true",
                      help="exit non-zero when any scenario is more than 2x "
                           "slower than the best committed entry per "
                           "scenario (composes with recording; add "
                           "--no-save to only gate)")
    perf.add_argument("--min-events-per-s", action="append", default=None,
                      metavar="SCENARIO=RATE", dest="events_floors",
                      help="absolute events/s floor for one scenario, e.g. "
                           "fig06-closed-loop=60000 (repeatable; exits "
                           "non-zero below the floor)")
    perf.add_argument("--budget-drift", action="store_true",
                      help="with --profile: exit non-zero when any "
                           "subsystem's self-time share grows more than 10 "
                           "points over the best committed profile budget")
    perf.add_argument("--show-budget", action="store_true",
                      help="profile each scenario and print its fresh "
                           "per-subsystem self-time shares next to the "
                           "committed budget with per-bucket deltas in "
                           "points (works without --profile; add --no-save "
                           "to inspect without recording)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        jobs = resolve_jobs(args.jobs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.figure == "perf":
        from repro.bench.perf import main_perf
        return main_perf(quick=args.quick, repeats=args.repeats,
                         profile_top=args.profile, label=args.label,
                         scenarios=args.perf_scenarios, output=args.output,
                         save=not args.no_save,
                         regression_gate=args.check_regression,
                         events_floors=args.events_floors,
                         budget_drift=args.budget_drift,
                         show_budget=args.show_budget,
                         seed=args.seed, jobs=jobs)
    names = list(_FIGURES) if args.figure == "all" else [args.figure]
    for name in names:
        print(run_figure(name, quick=args.quick, seed=args.seed, jobs=jobs))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
