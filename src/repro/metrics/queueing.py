"""Admission-control accounting for open-loop load generation.

A closed-loop client can never overload the store — it only issues after the
previous operation completes.  An open-loop generator offers load at a rate
the store does not control, so three new quantities appear that the latency
recorders alone cannot express:

* **offered vs admitted vs shed** — how many arrivals the admission
  controller let through, queued, or dropped;
* **queue delay** — the time an admitted operation waited between arriving
  and being issued to the store (the component of user-observed latency
  that explodes at saturation);
* **in-flight / queue high-water marks** — how hard the bounded-concurrency
  limit and the wait queue were actually pushed.

:class:`AdmissionStats` collects all of it.  Whole-run counters (``offered``,
``admitted``, ``shed``) cover warm-up and cool-down too; the ``measured_*``
counters only cover arrivals inside the measurement window.  The queue-delay
recorder receives one sample per *measured completion* (recorded by the
open-loop runner's pooled operation record, :class:`repro.workloads.runner.
_OpenOp`, under exactly the same arrived-in-window / completed-in-window
predicate as the latency recorders), so queue-delay and latency statistics
always describe the same population of operations — a tail that queued past
the window's end is censored from both, never from just one.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.metrics.latency import LatencyRecorder


class AdmissionStats:
    """Offered-load, shedding, and queue-delay accounting for one run."""

    def __init__(self) -> None:
        #: Arrivals the generator produced (whole run).
        self.offered = 0
        #: Arrivals issued to the store, immediately or after queueing.
        self.admitted = 0
        #: Arrivals dropped by the admission policy (whole run).
        self.shed = 0
        #: Arrivals inside the measurement window.
        self.measured_offered = 0
        #: Arrivals inside the measurement window that were shed.
        self.measured_shed = 0
        #: Time admitted operations spent waiting for an in-flight slot
        #: (0 for operations issued on arrival); one sample per measured
        #: completion — the same population the latency recorders cover.
        self.queue_delay = LatencyRecorder()
        #: Most operations concurrently in flight at any instant.
        self.in_flight_high_water = 0
        #: Deepest the admission queue ever got.
        self.queue_high_water = 0

    # -- recording ---------------------------------------------------------
    def record_arrival(self, measured: bool) -> None:
        self.offered += 1
        if measured:
            self.measured_offered += 1

    def record_shed(self, measured: bool) -> None:
        self.shed += 1
        if measured:
            self.measured_shed += 1

    def record_issue(self, in_flight: int) -> None:
        self.admitted += 1
        if in_flight > self.in_flight_high_water:
            self.in_flight_high_water = in_flight

    def record_queue_delay(self, queue_delay_ms: float) -> None:
        """One sample per measured completion (see the class docstring)."""
        self.queue_delay.record(queue_delay_ms)

    def record_queue_depth(self, depth: int) -> None:
        if depth > self.queue_high_water:
            self.queue_high_water = depth

    # -- summaries ---------------------------------------------------------
    def shed_percent(self) -> float:
        """Share of measured arrivals dropped by admission control."""
        if self.measured_offered == 0:
            return 0.0
        return 100.0 * self.measured_shed / self.measured_offered

    def summary(self) -> Dict[str, Any]:
        return {
            "offered_ops": self.measured_offered,
            "shed_ops": self.measured_shed,
            "shed_pct": self.shed_percent(),
            "queue_delay_mean_ms": self.queue_delay.mean(),
            "queue_delay_p99_ms": self.queue_delay.p99(),
            "in_flight_high_water": self.in_flight_high_water,
            "queue_high_water": self.queue_high_water,
        }
