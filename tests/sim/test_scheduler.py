"""Tests for the simulated clock and event scheduler."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.clock import Clock
from repro.sim.scheduler import _PURGE_THRESHOLD, Scheduler


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now() == 0.0

    def test_custom_start(self):
        assert Clock(start=10.0).now() == 10.0

    def test_advance(self):
        clock = Clock()
        clock.advance_to(5.0)
        assert clock.now() == 5.0

    def test_advance_backwards_raises(self):
        clock = Clock(start=10.0)
        with pytest.raises(ValueError):
            clock.advance_to(5.0)

    def test_advance_to_same_time_allowed(self):
        clock = Clock(start=3.0)
        clock.advance_to(3.0)
        assert clock.now() == 3.0


class TestScheduling:
    def test_events_run_in_time_order(self, scheduler):
        order = []
        scheduler.schedule(10, order.append, "b")
        scheduler.schedule(5, order.append, "a")
        scheduler.schedule(20, order.append, "c")
        scheduler.run_until_idle()
        assert order == ["a", "b", "c"]

    def test_clock_advances_with_events(self, scheduler):
        times = []
        scheduler.schedule(7.5, lambda: times.append(scheduler.now()))
        scheduler.run_until_idle()
        assert times == [7.5]
        assert scheduler.now() == 7.5

    def test_same_time_events_run_in_submission_order(self, scheduler):
        order = []
        for name in "abcde":
            scheduler.schedule(1.0, order.append, name)
        scheduler.run_until_idle()
        assert order == list("abcde")

    def test_negative_delay_rejected(self, scheduler):
        with pytest.raises(ValueError):
            scheduler.schedule(-1, lambda: None)

    @pytest.mark.parametrize("entry", [
        lambda s, fn: s.schedule(float("nan"), fn),
        lambda s, fn: s.schedule_at(float("nan"), fn),
        lambda s, fn: s.schedule_call_at(float("nan"), fn),
    ], ids=["schedule", "schedule_at", "schedule_call_at"])
    def test_nan_time_rejected(self, scheduler, entry):
        """A NaN time compares false against everything, so it jumped
        ahead of events already due."""
        order = []
        scheduler.schedule(1.0, order.append, "due")
        with pytest.raises(ValueError):
            entry(scheduler, lambda: order.append("nan"))
        scheduler.run_until_idle()
        assert order == ["due"]
        assert scheduler.now() == 1.0

    def test_schedule_at_in_past_rejected(self, scheduler):
        scheduler.schedule(5, lambda: None)
        scheduler.run_until_idle()
        with pytest.raises(ValueError):
            scheduler.schedule_at(1.0, lambda: None)

    def test_cancelled_event_does_not_run(self, scheduler):
        seen = []
        event = scheduler.schedule(1, seen.append, "x")
        event.cancel()
        scheduler.run_until_idle()
        assert seen == []

    def test_events_scheduled_from_events(self, scheduler):
        seen = []

        def first():
            seen.append("first")
            scheduler.schedule(5, lambda: seen.append("second"))

        scheduler.schedule(1, first)
        scheduler.run_until_idle()
        assert seen == ["first", "second"]
        assert scheduler.now() == 6.0

    def test_kwargs_passed(self, scheduler):
        seen = {}
        scheduler.schedule(1, seen.update, answer=42)
        scheduler.run_until_idle()
        assert seen == {"answer": 42}

    def test_kwargs_passed_at_an_absolute_time(self, scheduler):
        seen = {}
        scheduler.schedule_at(3.0, seen.update, answer=7)
        scheduler.run_until_idle()
        assert seen == {"answer": 7} and scheduler.now() == 3.0


class TestRunControl:
    def test_run_until_stops_clock_at_bound(self, scheduler):
        seen = []
        scheduler.schedule(5, seen.append, "early")
        scheduler.schedule(50, seen.append, "late")
        scheduler.run(until=10)
        assert seen == ["early"]
        assert scheduler.now() == 10
        assert scheduler.pending() == 1

    def test_run_resumes_after_until(self, scheduler):
        seen = []
        scheduler.schedule(50, seen.append, "late")
        scheduler.run(until=10)
        scheduler.run_until_idle()
        assert seen == ["late"]

    def test_run_max_events(self, scheduler):
        seen = []
        for i in range(10):
            scheduler.schedule(i, seen.append, i)
        scheduler.run(max_events=3)
        assert seen == [0, 1, 2]

    def test_step_returns_false_when_empty(self, scheduler):
        assert scheduler.step() is False

    def test_step_runs_one_event(self, scheduler):
        seen = []
        scheduler.schedule(1, seen.append, 1)
        scheduler.schedule(2, seen.append, 2)
        assert scheduler.step() is True
        assert seen == [1]

    def test_runaway_guard(self, scheduler):
        def reschedule():
            scheduler.schedule(1, reschedule)

        scheduler.schedule(1, reschedule)
        with pytest.raises(RuntimeError):
            scheduler.run_until_idle(max_events=100)

    def test_cap_reached_on_the_last_live_event_is_convergence(self, scheduler):
        # Regression: only a *cancelled* timer is still queued when the cap
        # is reached exactly as the last live event runs; that is a drained
        # simulation, not a runaway one.
        seen = []
        for i in range(3):
            scheduler.schedule(i + 1, seen.append, i)
        scheduler.schedule(10, seen.append, "dead").cancel()
        scheduler.run_until_idle(max_events=3)
        assert seen == [0, 1, 2]
        assert scheduler.pending() == 1
        assert scheduler.pending(live_only=True) == 0

    def test_events_executed_counter(self, scheduler):
        for i in range(5):
            scheduler.schedule(i, lambda: None)
        scheduler.run_until_idle()
        assert scheduler.events_executed == 5


class TestFastPathScheduling:
    def test_schedule_call_runs_fn_with_args(self, scheduler):
        seen = []
        scheduler.schedule_call_at(5.0, seen.append, ("x",))
        scheduler.run_until_idle()
        assert seen == ["x"]
        assert scheduler.now() == 5.0

    def test_schedule_call_at_in_past_rejected(self, scheduler):
        scheduler.schedule(5, lambda: None)
        scheduler.run_until_idle()
        with pytest.raises(ValueError):
            scheduler.schedule_call_at(1.0, lambda: None)

    def test_schedule_call_interleaves_with_events_in_seq_order(self, scheduler):
        order = []
        scheduler.schedule(1.0, order.append, "a")
        scheduler.schedule_call_at(1.0, order.append, ("b",))
        scheduler.schedule(1.0, order.append, "c")
        scheduler.run_until_idle()
        assert order == ["a", "b", "c"]

    def test_schedule_call_at_now_runs_after_this_instants_events(
            self, scheduler):
        seen = []

        def first():
            scheduler.schedule_call_at(scheduler.now(), seen.append,
                                       (("soon", scheduler.now()),))

        scheduler.schedule(3.0, first)
        scheduler.schedule(3.0, seen.append, ("queued", 3.0))
        scheduler.run_until_idle()
        assert seen == [("queued", 3.0), ("soon", 3.0)]
        assert scheduler.now() == 3.0

    def test_schedule_call_at_returns_no_handle(self, scheduler):
        assert scheduler.schedule_call_at(2.0, list) is None
        assert scheduler.pending() == 1
        assert scheduler.pending(live_only=True) == 1

    def test_schedule_call_at_same_instant_keeps_submission_order(
            self, scheduler):
        order = []
        for name in "abcde":
            scheduler.schedule_call_at(4.0, order.append, (name,))
        scheduler.run_until_idle()
        assert order == list("abcde")


class TestCancellationBookkeeping:
    def test_pending_counts_cancelled_by_default(self, scheduler):
        live = scheduler.schedule(1, lambda: None)
        dead = scheduler.schedule(2, lambda: None)
        dead.cancel()
        assert scheduler.pending() == 2
        assert scheduler.pending(live_only=True) == 1
        live.cancel()
        assert scheduler.pending(live_only=True) == 0

    def test_cancel_after_execution_is_inert(self, scheduler):
        fired = scheduler.schedule(1, lambda: None)
        queued = scheduler.schedule(10, lambda: None)
        scheduler.run(until=5)
        fired.cancel()  # late cancel of an already-fired timeout
        assert scheduler.pending() == 1
        assert scheduler.pending(live_only=True) == 1
        queued.cancel()
        assert scheduler.pending(live_only=True) == 0

    def test_cancel_after_step_is_inert(self, scheduler):
        fired = scheduler.schedule(1, lambda: None)
        scheduler.schedule(10, lambda: None)
        assert scheduler.step() is True
        fired.cancel()
        assert scheduler.pending(live_only=True) == 1

    def test_cancel_of_pushed_back_head_still_counted(self, scheduler):
        late = scheduler.schedule(50, lambda: None)
        scheduler.run(until=10)  # pops and re-queues the head entry
        late.cancel()
        assert scheduler.pending(live_only=True) == 0
        scheduler.run_until_idle()
        assert scheduler.events_executed == 0

    def test_double_cancel_counted_once(self, scheduler):
        event = scheduler.schedule(1, lambda: None)
        event.cancel()
        event.cancel()
        assert scheduler.pending(live_only=True) == 0
        assert scheduler.pending() == 1

    def test_mass_cancellation_compacts_heap(self, scheduler):
        events = [scheduler.schedule(i + 1, lambda: None) for i in range(2000)]
        for event in events[:1500]:
            event.cancel()
        # The lazy purge kicks in once cancellations dominate: the heap
        # shrinks without running anything.
        assert scheduler.pending() < 2000
        assert scheduler.pending(live_only=True) == 500
        scheduler.run_until_idle()
        assert scheduler.events_executed == 500

    def test_cancelled_events_skipped_after_compaction(self, scheduler):
        seen = []
        keep = scheduler.schedule(10, seen.append, "keep")
        cancelled = [scheduler.schedule(5, seen.append, f"drop{i}")
                     for i in range(1000)]
        for event in cancelled:
            event.cancel()
        scheduler.run_until_idle()
        assert seen == ["keep"]

    def test_purge_during_run_keeps_future_events(self, scheduler):
        seen = []
        later = [scheduler.schedule(50 + i, seen.append, i)
                 for i in range(600)]

        def cancel_most():
            for event in later[:590]:
                event.cancel()

        scheduler.schedule(1, cancel_most)
        scheduler.run_until_idle()
        assert seen == list(range(590, 600))


class TestNearAndFarEvents:
    """Events a millisecond and several seconds away share one queue, and
    cancelled entries sit in it until popped or purged.  Every test
    cross-checks the O(1) live counter against the O(n)
    :meth:`Scheduler._scan_live` audit."""

    def audit(self, scheduler):
        assert scheduler.pending(live_only=True) == scheduler._scan_live()

    def test_near_and_far_events_drain_in_time_order(self, scheduler):
        order = []
        for delay in (2500.0, 100.0, 5000.0, 900.0, 1500.0):
            scheduler.schedule(delay, order.append, delay)
        assert scheduler.pending() == 5
        self.audit(scheduler)
        scheduler.run(until=1000.0)
        assert order == [100.0, 900.0]
        assert scheduler.pending() == 3
        self.audit(scheduler)
        scheduler.run_until_idle()
        assert order == [100.0, 900.0, 1500.0, 2500.0, 5000.0]
        assert scheduler.pending() == 0
        self.audit(scheduler)

    def test_events_spread_over_seconds_run_in_time_order(self, scheduler):
        # Timestamps spread over 6 s, scheduled in a scrambled order.
        observed = []
        delays = [float(i * 613 % 6000) + 0.25 for i in range(64)]
        for delay in delays:
            scheduler.schedule(delay, lambda: observed.append(scheduler.now()))
        self.audit(scheduler)
        scheduler.run_until_idle()
        assert observed == sorted(observed)
        assert len(observed) == len(delays)
        self.audit(scheduler)

    def test_same_instant_far_events_keep_submission_order(self, scheduler):
        # Two entries at the same far-future instant run in (time, seq)
        # order however many sifts moved them in between.
        order = []
        scheduler.schedule(3000.0, order.append, "first")
        scheduler.schedule(3000.0, order.append, "second")
        scheduler.run_until_idle()
        assert order == ["first", "second"]

    def test_cancelled_queued_entry_never_runs(self, scheduler):
        seen = []
        scheduler.schedule(700.0, seen.append, "keep")
        drop = scheduler.schedule(700.0, seen.append, "drop")
        assert scheduler.pending() == 2
        drop.cancel()
        assert scheduler.pending() == 2  # still queued, no longer live
        assert scheduler.pending(live_only=True) == 1
        self.audit(scheduler)
        scheduler.run_until_idle()
        assert seen == ["keep"]
        assert scheduler.pending() == 0

    def test_cancelled_far_entry_never_runs(self, scheduler):
        seen = []
        dead = scheduler.schedule(4000.0, seen.append, "dead")
        scheduler.schedule(4500.0, seen.append, "live")
        dead.cancel()
        self.audit(scheduler)
        scheduler.run_until_idle()
        assert seen == ["live"]
        assert scheduler.events_executed == 1

    def test_mass_cancel_shrinks_pending_and_the_queue(self, scheduler):
        # 2000 near events (two per millisecond): the lazy purge must take
        # the cancelled entries out of the queue itself, not just stop
        # counting them.
        events = [scheduler.schedule(float(i % 1000) + 1.5, lambda: None)
                  for i in range(2000)]
        assert scheduler.pending() == len(scheduler._heap) == 2000
        for event in events[:1500]:
            event.cancel()
        assert scheduler.pending() == len(scheduler._heap) < 2000
        assert scheduler.pending(live_only=True) == 500
        self.audit(scheduler)
        scheduler.run_until_idle()
        assert scheduler.events_executed == 500

    def test_insert_after_run_until_still_runs_first(self, scheduler):
        # After stopping at an `until` bound, a new earlier-but-future event
        # still runs before the one the stop left queued.
        seen = []
        scheduler.schedule(500.0, seen.append, "far")
        scheduler.run(until=200.0)
        assert scheduler.now() == 200.0
        scheduler.schedule(100.0, seen.append, "near")
        self.audit(scheduler)
        scheduler.run_until_idle()
        assert seen == ["near", "far"]


class TestRunUntilInThePast:
    """``run(until < now)`` executes nothing and moves nothing, however close
    the next event is (it used to raise when that was within the clock's
    millisecond and return silently otherwise)."""

    @pytest.mark.parametrize("pending_at", [100.5, 150.0],
                             ids=["same-millisecond", "later"])
    def test_past_until_is_a_no_op(self, scheduler, pending_at):
        seen = []
        scheduler.schedule(100.0, seen.append, "first")
        scheduler.schedule(pending_at, seen.append, "pending")
        scheduler.run(max_events=1)
        scheduler.run(until=50.0)
        assert seen == ["first"]
        assert scheduler.now() == 100.0
        assert scheduler.pending(live_only=True) == 1
        scheduler.run_until_idle()
        assert seen == ["first", "pending"]
        assert scheduler.now() == pending_at

    def test_until_equal_to_now_runs_what_is_due_now(self, scheduler):
        seen = []
        scheduler.schedule(100.0, seen.append, "first")
        scheduler.schedule(100.0, seen.append, "same-instant")
        scheduler.schedule(100.5, seen.append, "same-millisecond")
        scheduler.run(max_events=1)
        scheduler.run(until=100.0)
        assert seen == ["first", "same-instant"]
        assert scheduler.now() == 100.0
        assert scheduler.pending(live_only=True) == 1


class TestRunUntilAndMaxEvents:
    """Both stops together: whichever comes first, the cap looked at first.
    A run that executed ``max_events`` events leaves the clock at the last
    of them wherever the next entry sits — due by ``until``, just past it,
    later, seconds away, nowhere, or a cancelled entry still physically
    queued (which used to decide whether the clock went on to ``until``)."""

    @pytest.mark.parametrize("next_at", [100.5, 100.9, 150.0, 4000.0, None],
                             ids=["due-by-until", "just-past-until",
                                  "later", "seconds-away",
                                  "nothing-queued"])
    @pytest.mark.parametrize("cancelled_in_between", [False, True])
    def test_cap_stop_leaves_the_clock_at_the_last_event(
            self, scheduler, next_at, cancelled_in_between):
        seen = []
        scheduler.schedule(50.0, seen.append, "a")
        scheduler.schedule(100.0, seen.append, "b")
        if cancelled_in_between:
            scheduler.schedule(100.25, seen.append, "dead").cancel()
        if next_at is not None:
            scheduler.schedule(next_at, seen.append, "next")
        scheduler.run(until=100.75, max_events=2)
        assert seen == ["a", "b"]
        assert scheduler.now() == 100.0
        assert scheduler.pending(live_only=True) == scheduler._scan_live() \
            == (next_at is not None)
        # The same call again stops for lack of events due by ``until``.
        scheduler.run(until=100.75, max_events=2)
        assert scheduler.now() == 100.75
        assert seen == (["a", "b", "next"] if next_at == 100.5
                        else ["a", "b"])

    def test_fewer_events_than_the_cap_reaches_until(self, scheduler):
        seen = []
        scheduler.schedule(50.0, seen.append, "a")
        scheduler.schedule(150.0, seen.append, "late")
        scheduler.run(until=100.0, max_events=2)
        assert seen == ["a"] and scheduler.now() == 100.0

    def test_zero_cap_runs_nothing_and_moves_nothing(self, scheduler):
        scheduler.schedule(50.0, list)
        scheduler.run(until=100.0, max_events=0)
        assert scheduler.now() == 0.0 and scheduler.events_executed == 0
        scheduler.run(max_events=0)
        assert scheduler.now() == 0.0 and scheduler.pending() == 1


class TestTrace:
    def test_trace_records_time_and_seq(self, scheduler):
        trace = scheduler.start_trace()
        scheduler.schedule(2.0, lambda: None)
        scheduler.schedule(1.0, lambda: None)
        scheduler.run_until_idle()
        assert [t for t, _ in trace] == [1.0, 2.0]
        assert len({seq for _, seq in trace}) == 2

    def test_stop_trace(self, scheduler):
        trace = scheduler.start_trace()
        scheduler.stop_trace()
        scheduler.schedule(1.0, lambda: None)
        scheduler.run_until_idle()
        assert trace == []


@given(st.lists(st.floats(min_value=0, max_value=1000,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=50))
def test_execution_times_are_monotone(delays):
    scheduler = Scheduler()
    observed = []
    for delay in delays:
        scheduler.schedule(delay, lambda: observed.append(scheduler.now()))
    scheduler.run_until_idle()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)
    assert scheduler.now() == max(delays)


# -- the heap against a list-and-sort model -----------------------------------

class _ListModel:
    """The scheduler's contract on a list and a sort — the reference the
    binary heap answers to."""

    def __init__(self):
        self.now, self.seq, self.queue, self.trace = 0.0, 0, [], []

    def add(self, api, delay, fn):
        entry = [self.now + delay, self.seq, fn, True]  # ..., still live
        self.seq += 1
        self.queue.append(entry)
        return entry if api in ("schedule", "schedule_at") else None

    def cancel(self, entry):
        entry[3] = False

    def live(self):
        return sum(entry[3] for entry in self.queue)

    def run(self, until=None, max_events=None):
        # Both stops together: whichever comes first, the cap checked first.
        start = len(self.trace)
        while len(self.trace) - start != max_events:
            self.queue = sorted(entry for entry in self.queue if entry[3])
            if not self.queue or (until is not None
                                  and self.queue[0][0] > until):
                self.now = self.now if until is None else until
                break
            self.now, seq, fn, _ = self.queue.pop(0)
            self.trace.append((self.now, seq))
            fn()
        return len(self.trace) - start

    def step(self):
        return self.run(max_events=1) == 1


class _Heap:
    """The real scheduler behind the model's interface."""

    def __init__(self):
        self.scheduler = Scheduler()
        self.trace = self.scheduler.start_trace()
        self.run, self.step = self.scheduler.run, self.scheduler.step

    now = property(lambda self: self.scheduler.now())

    def add(self, api, delay, fn):
        scheduler = self.scheduler
        if api.endswith("_at"):
            return getattr(scheduler, api)(scheduler.now() + delay, fn)
        return getattr(scheduler, api)(delay, fn)

    def cancel(self, event):
        event.cancel()

    def live(self):
        """The live count, audited: both ``pending`` figures are derived from
        counters and must equal what a walk over the queue finds."""
        scheduler = self.scheduler
        live = scheduler.pending(live_only=True)
        assert live == scheduler._scan_live()
        assert scheduler.pending() == len(scheduler._heap)
        return live


_APIS = ("schedule", "schedule_at", "schedule_call_at")
#: Same-instant and sub-millisecond delays, service-time and RTT sized ones,
#: both sides of one second (the retired wheel's 1,024 ms horizon and its
#: edges), multi-second timers, and the far future (10 s to 10 min).
_DELAYS = st.one_of(
    st.sampled_from([0.0, 0.25, 1.0, 1023.0, 1023.75, 1024.0, 1024.25,
                     10_000.0]),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.0, max_value=1200.0),
    st.floats(min_value=1000.0, max_value=6000.0),
    st.floats(min_value=10_000.0, max_value=600_000.0))
_CANCEL = st.tuples(st.just("cancel"), st.integers(min_value=0))
_STORM = st.tuples(st.just("storm"), st.floats(min_value=0.01, max_value=8.0))
#: ``(api, delay, actions)``: when it runs, an event schedules children,
#: cancels handles and raises cancellation storms.
_EVENTS = st.recursive(
    st.tuples(st.sampled_from(_APIS), _DELAYS, st.just([])),
    lambda events: st.tuples(
        st.sampled_from(_APIS), _DELAYS,
        st.lists(st.one_of(events, _CANCEL, _STORM), max_size=3)),
    max_leaves=8)
_STOPS = st.one_of(
    st.tuples(st.just("run_until"), _DELAYS),
    st.tuples(st.just("run_events"), st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("run_both"), _DELAYS,
              st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("step")))
_PROGRAMS = st.lists(st.one_of(_EVENTS, _EVENTS, _CANCEL, _STORM, _STOPS),
                     max_size=30)


def _apply(backend, handles, action):
    """One scheduling action, from the top level or from inside an event."""
    if action[0] == "cancel":
        if handles:
            backend.cancel(handles[action[1] % len(handles)])
    elif action[0] == "storm":
        # More handles than the purge threshold (the stride decides how far
        # out they spread), nearly all cancelled on the spot.
        storm = [backend.add("schedule", i * action[1] % 3000.0, list)
                 for i in range(_PURGE_THRESHOLD + 40)]
        for handle in storm[20:]:
            backend.cancel(handle)
        handles.extend(storm[:20])
    elif action[0] == "deep":
        # A queue far deeper than any workload's: every API (nine entries in
        # ten cancellable), out to 30 s, a third of them on shared instants.
        draw = random.Random(action[1]).random
        for i in range(action[2]):
            delay = (i % 977 * 7.5 if i % 3 == 0 else draw() * 30_000.0)
            handle = backend.add(_APIS[i % 2 if i % 10 else 2],
                                 delay, list)
            if handle is not None:
                handles.append(handle)
    elif action[0] == "cancel_most":
        # Mass cancellation at depth: purges (and their heapify) run
        # several times on the way down.
        for index, handle in enumerate(handles):
            if index % action[1]:
                backend.cancel(handle)
    else:
        api, delay, actions = action
        handle = backend.add(api, delay, lambda: [
            _apply(backend, handles, inner) for inner in actions])
        if handle is not None:
            handles.append(handle)


def _play(backend, program):
    """Run ``program`` to the end; returns everything observable: the clock,
    the live count and the trace length at every stop, and the trace."""
    handles, stops = [], []
    for action in program + [("drain",)]:
        stepped = None
        if action[0] == "run_until":
            backend.run(until=backend.now + action[1])
        elif action[0] == "run_events":
            backend.run(max_events=action[1])
        elif action[0] == "run_both":
            backend.run(until=backend.now + action[1], max_events=action[2])
        elif action[0] == "step":
            stepped = backend.step()
        elif action[0] == "drain":
            backend.run()
        else:
            _apply(backend, handles, action)
            backend.live()
            continue
        stops.append((backend.now, backend.live(), len(backend.trace),
                      stepped))
    return stops, backend.trace


@settings(deadline=None)
@given(_PROGRAMS)
def test_heap_matches_the_list_model(program):
    stops, trace = _play(_Heap(), program)
    assert (stops, trace) == _play(_ListModel(), program)
    assert stops[-1][1] == 0 and trace == sorted(trace)


def test_deep_queue_matches_the_list_model():
    """One fixed program at a depth no workload reaches (24k pending, the
    perfbench peak is ~700): order while deep, mass cancellation and the
    heapify after each purge, then ordinary traffic over what is left."""
    child = ("schedule_call_at", 0.25, [("schedule", 12_000.0, []), ("cancel", 5)])
    program = [
        ("deep", 23, 24_000),
        ("run_events", 300),
        ("schedule", 0.5, [child, ("storm", 3.0)]),
        ("run_until", 40.0),
        ("cancel_most", 25),
        ("run_both", 900.0, 150),
        ("schedule_at", 1024.0, [child]),
        ("step",),
        ("run_until", 15_000.0),
    ]
    backend = _Heap()
    stops, trace = _play(backend, program)
    assert (stops, trace) == _play(_ListModel(), program)
    assert stops[0][1] == 24_000 - 300 and stops[-1][1] == 0
    assert trace == sorted(trace) and len(trace) > 1_000
    assert backend.scheduler.pending() == 0
