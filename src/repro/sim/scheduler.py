"""Event scheduler: the heart of the discrete-event simulation.

Events are callbacks ordered by (time, sequence-number).  The sequence number
makes execution order deterministic for events scheduled at the same instant,
which in turn makes every experiment in :mod:`repro.bench` reproducible.

Entries are plain five-field tuples ``(time, seq, fn, args, marker)`` so
ordering is decided by C-level tuple comparison on the first two fields
(``seq`` is unique, so nothing beyond it is ever compared) and running one
is ``fn(*args)``, nothing else.  Keyword arguments are bound into ``fn``
once, with :func:`functools.partial`, by the two entry points that accept
them (:meth:`Scheduler.schedule`, :meth:`Scheduler.schedule_at`); the drain
never looks for them.  Two write paths feed the queue:

* :meth:`Scheduler.schedule` / :meth:`Scheduler.schedule_at` return an
  :class:`Event` handle (stored in the marker slot) so callers can cancel
  pending work (timeouts);
* :meth:`Scheduler.schedule_call_at` is the fire-and-forget path —
  ``marker`` is ``None``, no handle and no per-event object allocation.
  Message deliveries and processing-queue jobs (the dominant event
  classes) take it, inlined by their one sender each
  (``Network.fused_send_to``, ``Node._enqueue``) and by the Cassandra
  coordinator: an insert is ``seq``, the tuple and one ``heappush``.

Storage is **one binary heap** of those tuples (:mod:`heapq`: the sift and
its ``(time, seq)`` comparisons run in C).  Every insert is a ``heappush``,
the drain is one ``while heap:`` loop around ``heappop``, and the drain
order is the global ``(time, seq)`` sort (checked against a list-and-sort
model in ``tests/sim/test_scheduler.py``).  A calendar queue stood here
once; it pays off only with thousands of events pending and several per
millisecond, and the workloads here hold a few hundred (EXPERIMENTS.md,
"One binary heap", has the curve and the one deeper scenario).

What is counted where: an insert allocates a ``seq`` and counts nothing
else; the drain adds what it executed to ``_events_executed`` when it
stops; :meth:`Event.cancel` counts the cancellation.  The number of live
events is *derived* when somebody asks — ``pending(live_only=True)`` is
``_seq - _events_executed - _cancellations``, still O(1) — so none of the
insert sites maintains it.  Cancelled entries still queued are counted
separately (``_cancelled``) and purged in bulk once they outnumber live
ones (amortized O(1) per cancellation), so long fault runs with many
abandoned timeouts do not grow the queue unboundedly.
:meth:`Scheduler._scan_live` is the O(n) audit of the derived figure, used
by the regression tests.
"""

from __future__ import annotations

import gc
from functools import partial
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

from repro.sim.clock import Clock

#: Lazy-purge trigger: compact the queue once at least this many cancelled
#: events are queued *and* they outnumber the live ones.
_PURGE_THRESHOLD = 512

_INFINITY = float("inf")
_NO_CAP = 1 << 62


class Event:
    """A cancellation handle for a scheduled callback.

    Instances are returned by :meth:`Scheduler.schedule` so callers can
    cancel pending work (e.g. a timeout that is no longer needed).
    """

    __slots__ = ("time", "seq", "cancelled", "_scheduler")

    def __init__(self, time: float, seq: int,
                 scheduler: Optional["Scheduler"] = None) -> None:
        self.time = time
        self.seq = seq
        self.cancelled = False
        self._scheduler = scheduler

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it when its time comes."""
        if not self.cancelled:
            self.cancelled = True
            scheduler = self._scheduler
            if scheduler is not None:
                # Inline bookkeeping (every timeout that does its job ends
                # here); only the rare purge is a call.
                scheduler._cancellations += 1
                cancelled = scheduler._cancelled = scheduler._cancelled + 1
                if cancelled >= _PURGE_THRESHOLD:
                    scheduler._purge_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.3f}, seq={self.seq}, {state})"


_new_event = Event.__new__


class Scheduler:
    """Discrete-event scheduler with a simulated :class:`Clock`."""

    __slots__ = ("clock", "_heap", "_seq", "_events_executed", "_cancelled",
                 "_cancellations", "_trace")

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock = clock if clock is not None else Clock()
        #: The queue: a binary heap of (time, seq, fn, args, marker) tuples.
        self._heap: list = []
        #: Entries ever inserted, events ever run, handles ever cancelled
        #: while pending: the live count is their difference (see pending).
        self._seq = 0
        self._events_executed = 0
        self._cancellations = 0
        #: Cancelled entries still physically queued (the purge trigger).
        self._cancelled = 0
        self._trace: Optional[list] = None

    @property
    def events_executed(self) -> int:
        """Number of events run so far (useful for runaway detection)."""
        return self._events_executed

    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self.clock._now

    def pending(self, live_only: bool = False) -> int:
        """Number of callbacks still queued.

        By default this counts cancelled-but-unpopped entries too (they
        still occupy queue slots); ``live_only=True`` reports only the events
        that will actually execute.  Both are O(1) and derived: everything
        ever inserted, minus what ran, minus what was cancelled.  Inside a
        running event the figure still includes the events the current
        :meth:`run` has executed (it books them when it stops).
        """
        live = self._seq - self._events_executed - self._cancellations
        return live if live_only else live + self._cancelled

    # -- tracing (determinism fingerprints) --------------------------------
    def start_trace(self) -> list:
        """Record ``(time, seq)`` for every executed event from now on.

        Returns the (live) list the trace accumulates into; used by the
        determinism regression tests to fingerprint the exact execution
        order of a run.  Takes effect from the next :meth:`run`/:meth:`step`
        call.
        """
        self._trace = []
        return self._trace

    def stop_trace(self) -> None:
        self._trace = None

    # -- scheduling --------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any,
                 **kwargs: Any) -> Event:
        """Schedule ``fn(*args, **kwargs)`` to run ``delay`` ms from now."""
        if not delay >= 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        if kwargs:
            fn = partial(fn, **kwargs)
        timestamp = self.clock._now + delay
        seq = self._seq
        self._seq = seq + 1
        # Event(...), inlined: one timer per request and one per quorum wait
        # go through here in every fault-tolerant configuration.
        event = _new_event(Event)
        event.time = timestamp
        event.seq = seq
        event.cancelled = False
        event._scheduler = self
        heappush(self._heap, (timestamp, seq, fn, args, event))
        return event

    def schedule_at(self, timestamp: float, fn: Callable[..., Any],
                    *args: Any, **kwargs: Any) -> Event:
        """Schedule ``fn`` at an absolute simulated time."""
        if not timestamp >= self.clock._now:
            raise ValueError(
                f"cannot schedule in the past: {timestamp} < {self.now()}")
        if kwargs:
            fn = partial(fn, **kwargs)
        seq = self._seq
        self._seq = seq + 1
        event = Event(timestamp, seq, self)
        heappush(self._heap, (timestamp, seq, fn, args, event))
        return event

    def schedule_call_at(self, timestamp: float, fn: Callable[..., Any],
                         args: tuple = ()) -> None:
        """Fire-and-forget :meth:`schedule_at`: no kwargs, no cancellation
        handle, no per-event allocation."""
        if not timestamp >= self.clock._now:
            raise ValueError(
                f"cannot schedule in the past: {timestamp} < {self.now()}")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (timestamp, seq, fn, args, None))

    # -- cancellation bookkeeping ------------------------------------------
    def _purge_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` once enough cancelled entries are
        queued; compacts the queue when they dominate (amortized O(1) per
        cancellation), so abandoned timeouts cannot grow it unboundedly."""
        heap = self._heap
        if self._cancelled * 2 > len(heap):
            # In place: the run() loop holds a reference to this list.
            heap[:] = [entry for entry in heap
                       if entry[4] is None or not entry[4].cancelled]
            heapify(heap)
            self._cancelled = 0

    def _scan_live(self) -> int:
        """O(n) audit of ``pending(live_only=True)``: walk the queue,
        counting callbacks that will actually execute.  Test/debug only —
        the run loops never call this."""
        return sum(1 for entry in self._heap
                   if entry[4] is None or not entry[4].cancelled)

    # -- execution ---------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event; False if there was none to run."""
        before = self._events_executed
        self.run(max_events=1)
        return self._events_executed != before

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have been executed.

        ``until`` is an absolute simulated time; events scheduled strictly
        after it remain queued and the clock stops at ``until``.  An
        ``until`` already in the past runs nothing and moves nothing.

        With both given, whichever stop comes first wins and the cap is
        looked at first: a run that has executed ``max_events`` events
        returns at once, the clock at the last of them, without asking what
        is queued next (``max_events=0`` runs nothing and moves nothing).
        The clock therefore reaches ``until`` only in a call that stopped
        for lack of events due by then; call again to get there.
        """
        clock = self.clock
        if until is not None and until < clock._now:
            return
        trace = self._trace
        heap = self._heap
        limit = _INFINITY if until is None else until
        cap = _NO_CAP if max_events is None else max_events
        executed = 0
        # Steady-state event execution allocates almost nothing the cyclic
        # collector can reclaim (per-op records are pooled, messages and the
        # rest die by refcount), so GC scans during the drain are pure
        # overhead: suspended here, any cycles wait for the caller's next one.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while heap:
                if executed >= cap:
                    return
                timestamp, seq, fn, args, marker = heappop(heap)
                if timestamp > limit:
                    # The head is the minimum: nothing else is due either.
                    heappush(heap, (timestamp, seq, fn, args, marker))
                    break
                # One marker test covers cancelled and handle entries: the
                # common plain entry pays a single branch.  (A cancelled entry
                # pushed back above stays counted in ``_cancelled`` until it
                # is popped in bounds or purged.)
                if marker is not None:
                    if marker.cancelled:
                        self._cancelled -= 1
                        continue
                    # Detach: a late cancel() on an already-fired event must
                    # not perturb the cancelled-entry bookkeeping.
                    marker._scheduler = None
                # Pops come in nondecreasing time order, so assigning cannot
                # move the clock backwards (Clock.advance_to would check it,
                # at a method call per event).
                clock._now = timestamp
                executed += 1
                if trace is not None:
                    trace.append((timestamp, seq))
                fn(*args)
            if until is not None and executed < cap and until > clock._now:
                clock.advance_to(until)
        finally:
            if gc_was_enabled:
                gc.enable()
            self._events_executed += executed

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Run until no events remain.  Guards against runaway simulations."""
        self.run(max_events=max_events)
        if self.pending(live_only=True) and self._events_executed >= max_events:
            raise RuntimeError(
                f"simulation did not converge after {max_events} events")
