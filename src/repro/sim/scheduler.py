"""Event scheduler: the heart of the discrete-event simulation.

Events are callbacks ordered by (time, sequence-number).  The sequence number
makes execution order deterministic for events scheduled at the same instant,
which in turn makes every experiment in :mod:`repro.bench` reproducible.

Entries are plain five-field tuples ``(time, seq, fn, args, marker)`` so
ordering is decided by C-level tuple comparison on the first two fields
(``seq`` is unique, so nothing beyond it is ever compared) and running one
is ``fn(*args)``, nothing else.  Keyword arguments are bound into ``fn``
once, with :func:`functools.partial`, by the three entry points that accept
them (:meth:`Scheduler.schedule`, :meth:`Scheduler.schedule_at`,
:meth:`Scheduler.schedule_call_at`); the drain never looks for them.  Two
write paths feed the queue:

* :meth:`Scheduler.schedule` / :meth:`Scheduler.schedule_at` return an
  :class:`Event` handle (stored in the marker slot) so callers can cancel
  pending work (timeouts);
* :meth:`Scheduler.schedule_call` / :meth:`Scheduler.schedule_call_at` are
  the fire-and-forget fast path — ``marker`` is ``None``, no handle and no
  per-event object allocation.  Message deliveries and processing-queue
  jobs (the dominant event classes) use it, and the hottest callers
  (``Network.fused_send_to``, ``Node._enqueue``, the Cassandra coordinator)
  inline it: an insert is ``seq``, the tuple and the wheel placement.

Storage is a **timing wheel** (calendar queue) over a binary heap:

* Events due within the wheel's horizon (1024 slots of 1 ms of simulated
  time) go into per-tick slot lists — an O(1) append instead of an
  O(log n) heap sift.  A slot is sorted once, when the wheel cursor
  reaches its tick; entries are compared as ``(time, seq)``, so the drain
  order is that of one global sort (the model property in
  ``tests/sim/test_scheduler.py`` is the reference).
* Events beyond the horizon (long timeouts, run-end sentinels) go to an
  **overflow heap** and migrate into the wheel lazily as the cursor's
  horizon sweeps over their timestamps.
* The cursor's own slot is kept heap-ordered at all times (activation
  sorts it; same-tick inserts use ``heappush``), so scheduling into the
  current tick during the drain preserves order.

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
import heapq
from functools import partial
from typing import Any, Callable, Optional

from repro.sim.clock import Clock

#: Lazy-purge trigger: compact the queue once at least this many cancelled
#: events are queued *and* they outnumber the live ones.
_PURGE_THRESHOLD = 512

#: Sentinel returned by :meth:`Scheduler._next_active` when the next event
#: lies beyond the run's ``until`` limit (the cursor is *not* advanced).
_BEYOND = object()

_INFINITY = float("inf")
_NO_CAP = 1 << 62

#: Wheel geometry: 1024 slots of 1 ms give a 1.024 s horizon —
#: service times, RTTs and protocol timeouts land in the wheel; run-end
#: sentinels and multi-second timers take the overflow heap.
_WHEEL_SLOTS = 1024
_WHEEL_WIDTH_MS = 1.0


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

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.3f}, seq={self.seq}, {state})"


_new_event = Event.__new__


class Scheduler:
    """Discrete-event scheduler with a simulated :class:`Clock`."""

    __slots__ = ("clock", "_heap", "_seq", "_events_executed", "_cancelled",
                 "_cancellations", "_trace", "_wheel_size",
                 "_wheel_mask", "_wheel_width", "_wheel_inv", "_slots",
                 "_wheel_count", "_cursor", "_horizon")

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock = clock if clock is not None else Clock()
        #: Overflow heap: (time, seq, fn, args, marker) tuples.
        self._heap: list = []
        #: Entries ever inserted, events ever run, handles ever cancelled
        #: while pending: the live count is their difference (see pending).
        self._seq = 0
        self._events_executed = 0
        self._cancellations = 0
        #: Cancelled entries still physically queued (the purge trigger).
        self._cancelled = 0
        self._trace: Optional[list] = None
        # -- timing wheel ---------------------------------------------------
        self._wheel_size = _WHEEL_SLOTS  # a power of two: ticks are masked
        self._wheel_mask = _WHEEL_SLOTS - 1
        self._wheel_width = _WHEEL_WIDTH_MS
        self._wheel_inv = 1.0 / _WHEEL_WIDTH_MS
        #: Per-tick buckets.  Invariants: every stored entry's tick lies in
        #: ``[cursor, cursor + _WHEEL_SLOTS)`` (so each bucket holds at most
        #: one tick's entries at a time), and the cursor's own bucket is
        #: always heap-ordered.
        self._slots: list = [[] for _ in range(_WHEEL_SLOTS)]
        #: Entries (not callbacks) currently stored in the wheel buckets.
        self._wheel_count = 0
        self._cursor = 0
        #: Absolute time bound of the wheel window; inserts below it go to
        #: a bucket, at or above it to the overflow heap.
        self._horizon = _WHEEL_SLOTS * _WHEEL_WIDTH_MS

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
    def _insert(self, timestamp: float, entry: tuple) -> None:
        """Store one entry: wheel bucket within the horizon, else heap.

        ``_wheel_count`` tracks entries in *non-cursor* buckets only: the
        cursor's own (heap-ordered) bucket is accounted by its truthiness
        in the run loop, so draining it costs no counter updates.
        """
        if timestamp < self._horizon:
            tick = int(timestamp * self._wheel_inv)
            if tick == self._cursor:
                heapq.heappush(self._slots[tick & self._wheel_mask], entry)
            else:
                self._slots[tick & self._wheel_mask].append(entry)
                self._wheel_count += 1
        else:
            heapq.heappush(self._heap, entry)

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any,
                 **kwargs: Any) -> Event:
        """Schedule ``fn(*args, **kwargs)`` to run ``delay`` ms from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        if kwargs:
            fn = partial(fn, **kwargs)
        timestamp = self.clock._now + delay
        seq = self._seq
        self._seq = seq + 1
        # Event(...) and _insert, inlined: one timer per request and one per
        # quorum wait go through here in every fault-tolerant configuration.
        event = _new_event(Event)
        event.time = timestamp
        event.seq = seq
        event.cancelled = False
        event._scheduler = self
        entry = (timestamp, seq, fn, args, event)
        if timestamp < self._horizon:
            tick = int(timestamp * self._wheel_inv)
            if tick == self._cursor:
                heapq.heappush(self._slots[tick & self._wheel_mask], entry)
            else:
                self._slots[tick & self._wheel_mask].append(entry)
                self._wheel_count += 1
        else:
            heapq.heappush(self._heap, entry)
        return event

    def schedule_at(self, timestamp: float, fn: Callable[..., Any],
                    *args: Any, **kwargs: Any) -> Event:
        """Schedule ``fn`` at an absolute simulated time."""
        if timestamp < self.clock._now:
            raise ValueError(
                f"cannot schedule in the past: {timestamp} < {self.now()}"
            )
        if kwargs:
            fn = partial(fn, **kwargs)
        seq = self._seq
        self._seq = seq + 1
        event = Event(timestamp, seq, self)
        self._insert(timestamp, (timestamp, seq, fn, args, event))
        return event

    def schedule_call(self, delay: float, fn: Callable[..., Any],
                      args: tuple = ()) -> None:
        """Fire-and-forget :meth:`schedule`: no kwargs, no cancellation
        handle, no per-event allocation.  The hot path for message
        deliveries and queue jobs."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        seq = self._seq
        self._seq = seq + 1
        timestamp = self.clock._now + delay
        # _insert, inlined: this and schedule_call_at are the two hottest
        # write paths in the simulator.
        if timestamp < self._horizon:
            tick = int(timestamp * self._wheel_inv)
            if tick == self._cursor:
                heapq.heappush(self._slots[tick & self._wheel_mask],
                               (timestamp, seq, fn, args, None))
            else:
                self._slots[tick & self._wheel_mask].append(
                    (timestamp, seq, fn, args, None))
                self._wheel_count += 1
        else:
            heapq.heappush(self._heap, (timestamp, seq, fn, args, None))

    def schedule_call_at(self, timestamp: float, fn: Callable[..., Any],
                         args: tuple = (),
                         kwargs: Optional[dict] = None) -> None:
        """Fire-and-forget :meth:`schedule_at` (see :meth:`schedule_call`)."""
        if timestamp < self.clock._now:
            raise ValueError(
                f"cannot schedule in the past: {timestamp} < {self.now()}"
            )
        if kwargs:
            fn = partial(fn, **kwargs)
        seq = self._seq
        self._seq = seq + 1
        if timestamp < self._horizon:
            tick = int(timestamp * self._wheel_inv)
            if tick == self._cursor:
                heapq.heappush(self._slots[tick & self._wheel_mask],
                               (timestamp, seq, fn, args, None))
            else:
                self._slots[tick & self._wheel_mask].append(
                    (timestamp, seq, fn, args, None))
                self._wheel_count += 1
        else:
            heapq.heappush(self._heap, (timestamp, seq, fn, args, None))

    def call_soon(self, fn: Callable[..., Any], *args: Any,
                  **kwargs: Any) -> Event:
        """Schedule ``fn`` at the current instant (after pending same-time events)."""
        return self.schedule(0.0, fn, *args, **kwargs)

    # -- cancellation bookkeeping ------------------------------------------
    def _purge_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` once enough cancelled entries are
        queued; compacts the queue when they dominate (amortized O(1) per
        cancellation), so abandoned timeouts cannot grow it unboundedly."""
        if self._cancelled * 2 > len(self._heap) + self._wheel_count:
            # In place: the run() loop holds references to these lists.
            self._heap[:] = [entry for entry in self._heap
                             if entry[4] is None or not entry[4].cancelled]
            heapq.heapify(self._heap)
            stored = 0
            cursor_index = self._cursor & self._wheel_mask
            for index, slot in enumerate(self._slots):
                if not slot:
                    continue
                slot[:] = [entry for entry in slot
                           if entry[4] is None or not entry[4].cancelled]
                if index == cursor_index:
                    # The cursor bucket stays heap-ordered and is excluded
                    # from the non-cursor storage count.
                    heapq.heapify(slot)
                else:
                    stored += len(slot)
            self._wheel_count = stored
            self._cancelled = 0

    def _scan_live(self) -> int:
        """O(n) audit of ``pending(live_only=True)``: walk the heap and every
        wheel bucket, counting callbacks that will actually execute.
        Test/debug only — the run loops never call this."""

        def _count(entries: list) -> int:
            return sum(1 for entry in entries
                       if entry[4] is None or not entry[4].cancelled)

        return _count(self._heap) + sum(
            _count(slot) for slot in self._slots if slot)

    # -- wheel cursor ------------------------------------------------------
    def _next_active(self, limit: float):
        """Advance the cursor to the next non-empty bucket and activate it.

        Migrates due overflow entries into the wheel, finds the next tick
        holding work, and sorts that bucket so it is a valid heap for the
        drain loop.  Returns the activated bucket, ``None`` when no events
        remain, or :data:`_BEYOND` — *without* advancing the cursor — when
        the next event's tick starts after ``limit`` (so a stopped run
        leaves the cursor at or before the clock, keeping the insert-path
        invariant that new entries never land behind it).
        """
        heap = self._heap
        slots = self._slots
        mask = self._wheel_mask
        inv = self._wheel_inv
        heappop = heapq.heappop
        # Overflow entries all lie at or beyond the horizon: it moves only
        # below (migrating as it goes) and in _reanchor (empty queue).
        if self._wheel_count == 0:
            if not heap:
                return None
            next_tick = int(heap[0][0] * inv)
        else:
            # Bounded by the wheel size: a non-empty wheel holds a tick in
            # (cursor, cursor + _WHEEL_SLOTS), each in a distinct bucket.
            probe = self._cursor + 1
            while not slots[probe & mask]:
                probe += 1
            next_tick = probe
        if next_tick * self._wheel_width > limit:
            return _BEYOND
        self._cursor = next_tick
        active = slots[next_tick & mask]
        # The activated bucket becomes the cursor bucket: its entries leave
        # the non-cursor count now, and the drain loop pops them without
        # touching any counter.
        self._wheel_count -= len(active)
        horizon = self._horizon = (next_tick + self._wheel_size) \
            * self._wheel_width
        while heap and heap[0][0] < horizon:
            entry = heappop(heap)
            tick = int(entry[0] * inv)
            if tick == next_tick:
                active.append(entry)
            else:
                slots[tick & mask].append(entry)
                self._wheel_count += 1
        active.sort()
        return active

    def _reanchor(self) -> None:
        """Re-align the (empty) wheel with the clock so future inserts can
        never land in a bucket behind the cursor."""
        self._cursor = int(self.clock._now * self._wheel_inv)
        self._horizon = (self._cursor + self._wheel_size) * self._wheel_width

    # -- execution ---------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event.

        Returns:
            True if an event was executed, False if the queue was empty.
        """
        while True:
            active = self._slots[self._cursor & self._wheel_mask]
            if not active:
                active = self._next_active(_INFINITY)
                if active is None:
                    self._reanchor()
                    return False
            entry = heapq.heappop(active)
            marker = entry[4]
            if marker is not None:
                if marker.cancelled:
                    self._cancelled -= 1
                    continue
                # Detach: a late cancel() on an already-fired event must not
                # perturb the cancelled-entry bookkeeping.
                marker._scheduler = None
            self.clock.advance_to(entry[0])
            self._events_executed += 1
            if self._trace is not None:
                self._trace.append((entry[0], entry[1]))
            entry[2](*entry[3])
            return True

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
        heappop = heapq.heappop
        slots = self._slots
        mask = self._wheel_mask
        limit = _INFINITY if until is None else until
        cap = _NO_CAP if max_events is None else max_events
        executed = 0
        # Steady-state event execution allocates almost nothing that the
        # cyclic collector can reclaim (messages and per-op records are
        # pooled, everything else dies by refcount), so generational GC scans
        # during the drain are pure overhead.  Suspend it for the duration;
        # any cycles produced are collected when the caller's next enabled
        # collection runs.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while True:
                active = slots[self._cursor & mask]
                if not active:
                    if executed >= cap:
                        # Before committing a cursor advance: a committed
                        # but undrained bucket would let a later insert land
                        # behind the cursor.
                        return
                    active = self._next_active(limit)
                    if active is None:
                        break
                    if active is _BEYOND:
                        if until > clock._now:
                            clock.advance_to(until)
                        return
                while active:
                    if executed >= cap:
                        return
                    entry = heappop(active)
                    timestamp = entry[0]
                    if timestamp > limit:
                        heapq.heappush(active, entry)
                        clock.advance_to(until)
                        return
                    # One marker test covers cancelled and handle entries;
                    # the overwhelmingly common plain entry pays a single
                    # branch.  A cancelled entry pushed back above keeps its
                    # ``_cancelled`` count until it is finally popped in
                    # bounds (or a purge removes it).
                    marker = entry[4]
                    if marker is not None:
                        if marker.cancelled:
                            self._cancelled -= 1
                            continue
                        # Detach: a late cancel() on an already-fired event
                        # must not perturb the cancelled-entry bookkeeping.
                        marker._scheduler = None
                    # Buckets activate in nondecreasing time order, so this
                    # direct assignment cannot move the clock backwards
                    # (Clock.advance_to enforces the same invariant with a
                    # per-event method call).
                    clock._now = timestamp
                    executed += 1
                    if trace is not None:
                        trace.append((timestamp, entry[1]))
                    entry[2](*entry[3])
            if until is not None and until > clock._now:
                clock.advance_to(until)
            # Fully drained: re-align the wheel with wherever the clock
            # stopped, so the cursor never sits ahead of a future insert.
            self._reanchor()
        finally:
            if gc_was_enabled:
                gc.enable()
            self._events_executed += executed

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Run until no events remain.  Guards against runaway simulations."""
        self.run(max_events=max_events)
        if self.pending() and self._events_executed >= max_events:
            raise RuntimeError(
                f"simulation did not converge after {max_events} events"
            )
