"""Declarative sweep engine: run a figure's grid serially or across processes.

Every figure family in :mod:`repro.bench` regenerates its data by running a
grid of independent deterministic simulations (fig06 alone is 3 workloads ×
3 systems × 3 thread counts).  This module factors that shape out: a family
describes its grid as a list of self-contained :class:`SweepPoint`\\ s and a
pure top-level ``run_point(point) -> record`` function, and
:func:`run_sweep` executes the points either in-process (``jobs=1``, the
default) or across a ``multiprocessing`` worker pool (``jobs=N`` or
``jobs="auto"``).

Guarantees, regardless of ``jobs``:

* **Determinism** — a point's record depends only on the point itself (its
  builder kwargs carry the seed), never on execution order; worker results
  are merged sorted by point index, so parallel output is byte-identical to
  serial output.
* **Crash isolation** — a point that raises does not kill the sweep; the
  failure is captured with the point's spec and full traceback, and the
  remaining points still run.  :meth:`SweepResult.records` raises
  :class:`SweepFailure` listing the failed specs only once everything else
  has completed.
* **Per-point wall timing** — each :class:`PointOutcome` reports how long
  its simulation took on the host, which the perf harness records in
  ``BENCH_perf.json``.

Workers are plain ``concurrent.futures.ProcessPoolExecutor`` processes (not
``multiprocessing.Pool`` daemons), so sweeps compose: the perf harness can
fan scenarios across processes while one scenario internally runs a parallel
sweep of its own.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

from repro.sim.rand import derive_rng, derive_seed

#: A point runner must be a module-level function so it pickles by qualified
#: name; it receives one point and returns that point's figure record.
PointRunner = Callable[["SweepPoint"], Any]

JobsSpec = Union[None, int, str]


@dataclass(frozen=True)
class SweepPoint:
    """One self-contained cell of a figure grid.

    ``labels`` identify the cell (system/workload/thread-count labels, used
    for reporting and seed derivation); ``kwargs`` are the builder arguments
    the family's ``run_point`` consumes.  Both must contain only picklable
    values (strings, numbers, tuples).
    """

    index: int
    family: str
    labels: Tuple[Tuple[str, Any], ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def label(self, key: str, default: Any = None) -> Any:
        for name, value in self.labels:
            if name == key:
                return value
        return default

    def spec(self) -> str:
        """Compact human-readable identity, used in failure reports."""
        labels = ", ".join(f"{k}={v}" for k, v in self.labels)
        return f"{self.family}[{self.index}]({labels})"


def make_points(family: str,
                cells: Iterable[Tuple[Dict[str, Any], Dict[str, Any]]]
                ) -> List[SweepPoint]:
    """Number a family's ``(labels, kwargs)`` cells into sweep points."""
    return [SweepPoint(index=index, family=family,
                       labels=tuple(labels.items()), kwargs=dict(kwargs))
            for index, (labels, kwargs) in enumerate(cells)]


def point_seed(master_seed: int, point: SweepPoint) -> int:
    """Deterministic per-point seed, independent of the point's position.

    Derived from the family name and the (sorted) labels only — never from
    ``point.index`` — so reordering, slicing, or extending a grid does not
    change the seed any existing cell receives.
    """
    name = ",".join(f"{k}={v}" for k, v in sorted(point.labels))
    return derive_seed(master_seed, f"{point.family}:{name}")


def derive_point_rng(master_seed: int, point: SweepPoint):
    """A ``random.Random`` seeded by :func:`point_seed`."""
    return derive_rng(master_seed, f"point:{point_seed(master_seed, point)}")


def resolve_jobs(jobs: JobsSpec) -> int:
    """Normalize a ``--jobs`` value: ``None``/``1`` serial, ``"auto"`` = cores."""
    if jobs is None:
        return 1
    if isinstance(jobs, str):
        if jobs == "auto":
            try:
                return max(1, len(os.sched_getaffinity(0)))
            except AttributeError:  # pragma: no cover - non-Linux hosts
                return max(1, os.cpu_count() or 1)
        if not jobs.isdigit():
            raise ValueError(f"jobs must be a positive integer or 'auto', "
                             f"got {jobs!r}")
        jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


@dataclass
class PointOutcome:
    """Result of executing one point: a record or a captured failure."""

    point: SweepPoint
    record: Any = None
    error: Optional[str] = None
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


class SweepFailure(RuntimeError):
    """Raised once a sweep has finished with at least one failed point.

    The message carries each failed point's spec *and* its captured
    traceback — the original exceptions happened in worker processes, so
    this is the only place their root cause surfaces.
    """

    def __init__(self, outcomes: Sequence[PointOutcome]) -> None:
        self.outcomes = list(outcomes)
        self.failed = [o for o in outcomes if not o.ok]
        specs = "; ".join(o.point.spec() for o in self.failed)
        details = "\n".join(
            f"--- {o.point.spec()} ---\n{(o.error or '').rstrip()}"
            for o in self.failed)
        super().__init__(
            f"{len(self.failed)}/{len(self.outcomes)} sweep points failed: "
            f"{specs}\n{details}")


@dataclass
class SweepResult:
    """All point outcomes (sorted by index) plus sweep-level accounting."""

    outcomes: List[PointOutcome]
    jobs: int
    wall_s: float

    def records(self) -> List[Any]:
        """The records in grid order; raises :class:`SweepFailure` if any
        point failed (crash isolation means the rest still completed)."""
        if any(not outcome.ok for outcome in self.outcomes):
            raise SweepFailure(self.outcomes)
        return [outcome.record for outcome in self.outcomes]

    def failed(self) -> List[PointOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def point_timings(self) -> List[Tuple[str, float]]:
        return [(outcome.point.spec(), outcome.wall_s)
                for outcome in self.outcomes]


def _execute_point(run_point: PointRunner, point: SweepPoint) -> PointOutcome:
    """Run one point, capturing wall time and any crash (never raises)."""
    start = time.perf_counter()
    try:
        record = run_point(point)
        return PointOutcome(point=point, record=record,
                            wall_s=time.perf_counter() - start)
    except Exception:
        import traceback
        return PointOutcome(point=point,
                            error=traceback.format_exc(),
                            wall_s=time.perf_counter() - start)


def pool_context():
    """Prefer fork (no re-import, inherits the loaded package) when available."""
    import multiprocessing
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0])


def run_sweep(points: Sequence[SweepPoint], run_point: PointRunner,
              jobs: JobsSpec = 1) -> SweepResult:
    """Execute every point and merge the outcomes in grid order.

    ``run_point`` must be a module-level function (it is pickled by name for
    the worker processes) and must depend only on the point it receives.
    """
    jobs = resolve_jobs(jobs)
    start = time.perf_counter()
    if jobs == 1 or len(points) <= 1:
        outcomes = [_execute_point(run_point, point) for point in points]
        return SweepResult(outcomes=outcomes, jobs=1,
                           wall_s=time.perf_counter() - start)
    from concurrent.futures import ProcessPoolExecutor, as_completed
    outcomes = []
    workers = min(jobs, len(points))
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=pool_context()) as pool:
        futures = [pool.submit(_execute_point, run_point, point)
                   for point in points]
        for future in as_completed(futures):
            outcomes.append(future.result())
    outcomes.sort(key=lambda outcome: outcome.point.index)
    return SweepResult(outcomes=outcomes, jobs=jobs,
                       wall_s=time.perf_counter() - start)
