"""Command-line entry point for regenerating individual figures.

``pytest benchmarks/`` regenerates every committed table; this CLI is the
quicker way to regenerate one figure, optionally at reduced scale::

    python -m repro.bench fig05
    python -m repro.bench fig07 --quick
    python -m repro.bench fig12 --seed 7
    python -m repro.bench all --quick

The choices, their parameters and ``--quick``'s overrides are the table in
:mod:`repro.bench.figures`.  Every figure regenerates its grid through the
sweep engine (:mod:`repro.bench.sweep`), so regeneration parallelizes
across processes with byte-identical output::

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
from typing import Optional, Sequence

from repro.bench.figures import FIGURES
from repro.bench.sweep import JobsSpec, resolve_jobs


def figure_names() -> Sequence[str]:
    """Names accepted by :func:`run_figure` (besides ``all``)."""
    return tuple(FIGURES)


def run_figure(name: str, quick: bool = False,
               seed: Optional[int] = None, jobs: JobsSpec = 1) -> str:
    """Run one figure's grid and return its rendered report.

    ``jobs`` fans the figure's sweep across processes (``"auto"`` = one per
    core); the records are merged in grid order, so the report is identical
    at any job count.
    """
    if name not in FIGURES:
        raise KeyError(f"unknown figure {name!r}; choose from {list(FIGURES)}")
    figure = FIGURES[name]
    overrides = dict(figure.quick) if quick else {}
    if seed is not None:
        overrides["seed"] = seed
    return figure.render(figure.run(jobs=resolve_jobs(jobs), **overrides))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate figures from the Correctables paper (OSDI '16).")
    parser.add_argument("figure", choices=list(FIGURES) + ["all", "perf"],
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
    names = list(FIGURES) if args.figure == "all" else [args.figure]
    for name in names:
        print(run_figure(name, quick=args.quick, seed=args.seed, jobs=jobs))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
