"""Shared load-generation machinery (the ``LoadEngine`` base).

Both load generators in :mod:`repro.workloads.runner` — the closed-loop
runner the paper's experiments use and the open-loop runner the saturation
experiments use — share everything except *when the next operation starts*:

* one issue contract, ``issue(op_type, key, value, sink, session_id=None)``
  (see :mod:`repro.workloads.runner`);
* warm-up / cool-down windows excluded from measurement;
* arming an optional fault script relative to the run's start time, so
  fault schedules compose identically with either loop shape;
* latency / divergence / degraded-or-failed accounting into a
  :class:`RunResult` of exact recorders.

:class:`LoadEngine` owns the windows, the fault arming and the result;
subclasses implement :meth:`LoadEngine._start_load` (closed loop: start N
client threads; open loop: schedule the first arrival) and the records that
account each completion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.metrics.divergence import DivergenceCounter
from repro.metrics.latency import LatencyRecorder
from repro.metrics.queueing import AdmissionStats
from repro.sim.scheduler import Scheduler


@dataclass
class RunResult:
    """Aggregated metrics for one load-run configuration."""

    label: str
    duration_ms: float
    measured_ops: int = 0
    total_ops: int = 0
    final_latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    preliminary_latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    read_latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    update_latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    divergence: DivergenceCounter = field(default_factory=DivergenceCounter)
    #: Operations answered with less than the requested quorum (whole run).
    degraded_ops: int = 0
    #: Operations that errored out, e.g. exhausted timeouts (whole run).
    failed_ops: int = 0
    #: Offered-load accounting (open-loop runs only; None for closed loops).
    admission: Optional[AdmissionStats] = None

    def throughput_ops_per_sec(self) -> float:
        # The engine's measured window is positive (it refuses a duration
        # that does not exceed warm-up plus cool-down).
        return self.measured_ops / (self.duration_ms / 1000.0)

    def offered_ops_per_sec(self) -> float:
        """Measured offered load (open loop); falls back to throughput."""
        if self.admission is None:
            return self.throughput_ops_per_sec()
        return self.admission.measured_offered / (self.duration_ms / 1000.0)

    def summary(self) -> Dict[str, Any]:
        summary = {
            "label": self.label,
            "throughput_ops_s": self.throughput_ops_per_sec(),
            "final_mean_ms": self.final_latency.mean(),
            "final_p99_ms": self.final_latency.p99(),
            "preliminary_mean_ms": self.preliminary_latency.mean(),
            "preliminary_p99_ms": self.preliminary_latency.p99(),
            "divergence_pct": self.divergence.divergence_percent(),
            "measured_ops": self.measured_ops,
            "degraded_ops": self.degraded_ops,
            "failed_ops": self.failed_ops,
        }
        if self.admission is not None:
            summary.update(self.admission.summary())
            summary["offered_ops_s"] = self.offered_ops_per_sec()
        return summary


class LoadEngine:
    """Base class for load generators running over simulated time.

    Owns the measurement windows, fault arming and the :class:`RunResult`;
    a subclass decides how operations are scheduled by implementing
    :meth:`_start_load` (called once the run's time windows are fixed) and
    accounts each completion in its per-operation records.
    """

    def __init__(self, scheduler: Scheduler, issue: Callable[..., None],
                 duration_ms: float = 30_000.0, warmup_ms: float = 5_000.0,
                 cooldown_ms: float = 5_000.0, label: str = "run",
                 faults: Optional[Any] = None,
                 admission: Optional[AdmissionStats] = None,
                 drain_ms: float = 60_000.0) -> None:
        if duration_ms <= warmup_ms + cooldown_ms:
            raise ValueError("duration must exceed warmup + cooldown")
        self.scheduler = scheduler
        self.issue = issue
        self.duration_ms = duration_ms
        self.warmup_ms = warmup_ms
        self.cooldown_ms = cooldown_ms
        self.label = label
        #: A :class:`repro.faults.FaultInjector` (or anything with ``arm``):
        #: its schedule is armed relative to the run's start time, so fault
        #: scripts compose with warm-up windows the same way on every run —
        #: and identically for closed- and open-loop arrival shapes.
        self.faults = faults
        #: Slack after ``end_time`` so in-flight operations drain.
        self.drain_ms = drain_ms
        self.start_time = 0.0
        self.end_time = 0.0
        self._measure_start = 0.0
        self._measure_end = 0.0
        self.result = RunResult(
            label=label, duration_ms=duration_ms - warmup_ms - cooldown_ms,
            admission=admission)

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Fix the time windows and start the load; the caller then runs
        the scheduler."""
        self.start_time = self.scheduler.now()
        self.end_time = self.start_time + self.duration_ms
        self._measure_start = self.start_time + self.warmup_ms
        self._measure_end = self.end_time - self.cooldown_ms
        if self.faults is not None:
            self.faults.arm(offset_ms=self.start_time)
        self._start_load()

    def _start_load(self) -> None:
        """Schedule the subclass's first operation(s)."""
        raise NotImplementedError

    def run(self) -> RunResult:
        """Start the load, run the simulation past the end, return metrics."""
        self.start()
        # Allow some slack after end_time so in-flight operations drain.
        self.scheduler.run(until=self.end_time + self.drain_ms)
        return self.result

    def in_measurement_window(self, at_ms: float) -> bool:
        """Whether an instant falls inside the measured (post-warm-up,
        pre-cool-down) window."""
        return self._measure_start <= at_ms <= self._measure_end
