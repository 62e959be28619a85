"""Load generation inside the simulation: closed- and open-loop runners.

The paper's load experiments (Figures 6, 7, 8 and 11) use YCSB client
threads in a closed loop: each thread issues one operation, waits for it to
complete, then immediately issues the next.  :class:`ClosedLoopRunner`
reproduces that behaviour on simulated time, with warm-up and cool-down
periods excluded from measurement (the paper elides the first and last 15 s
of 60 s trials).

A closed loop can only show latency at the throughput it self-limits to; it
says nothing about behaviour under *offered* load.  :class:`OpenLoopRunner`
schedules operation arrivals from a deterministic arrival process
(:mod:`repro.workloads.arrivals`) across a pool of lightweight client
sessions, with bounded in-flight admission control (queue or shed) and
queue-delay accounting — the regime the saturation experiments (fig14)
measure.

Both runners share :class:`~repro.workloads.engine.LoadEngine` and one
contract with the experiment harness, which supplies the issue function::

    issue(op_type, key, value, sink, session_id=None)

``issue`` executes one operation against whatever stack is under test and
completes it into ``sink`` — the runner's pooled record of that operation
(:class:`_ClientThread` in the closed loop, :class:`_OpenOp` in the open
loop), a sink of :mod:`repro.core.sink`.  An issuer hands the record
straight to the store (``lean_read``/``lean_write``, ``submit_sink``,
``execute_sink``) or forwards another API's answers into it.  Before an
ICG operation the issuer sets the record's one writable slot,
``sink.icg = True``: the record then also accounts the preliminary latency
and whether the preliminary diverged from the final view (the paper's
divergence).  The open loop passes the session it chose for the operation
as ``session_id``; the closed loop never passes it.

The records know nothing of the store.  Every completion counts in
``total_ops`` (``degraded_ops`` and ``failed_ops`` over the whole run,
too); one measured inside the window adds a response-time sample, to the
update latency if the operation was issued as an ``"update"`` and to the
read latency otherwise.  ``sink.icg`` alone decides whether the preliminary
and the divergence pair are accounted.  A failure adds the response-time
sample only: it has no final view, so no preliminary latency and no
divergence pair.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from repro.metrics.queueing import AdmissionStats
from repro.sim.scheduler import Scheduler
from repro.workloads.arrivals import ArrivalProcess
from repro.workloads.engine import LoadEngine, RunResult
from repro.workloads.ycsb import OperationGenerator

__all__ = [
    "ClosedLoopRunner",
    "OpenLoopRunner",
    "RunResult",
]


class _ClientThread:
    """One closed-loop logical thread issuing operations back-to-back.

    The loop is closed — at most one operation is outstanding per thread —
    so the thread itself is that operation's completion sink: the
    ``deliver_*`` methods below account it straight into the runner's
    recorders (arrival == issue, queue delay identically zero) and issue the
    next operation.
    """

    __slots__ = ("runner", "thread_id", "generator", "_issued_at",
                 "_op_type", "icg", "_had_prelim", "_prelim_value",
                 "_prelim_latency")

    def __init__(self, runner: "ClosedLoopRunner", thread_id: int,
                 generator: OperationGenerator) -> None:
        self.runner = runner
        self.thread_id = thread_id
        self.generator = generator
        self._issued_at = 0.0
        self._op_type = ""
        #: Set by the issuer before an ICG read (see the module docstring);
        #: cleared when that read completes, as a fresh ``_OpenOp`` is.
        self.icg = False
        self._had_prelim = False
        self._prelim_value = None
        self._prelim_latency = None

    def start(self) -> None:
        # Closed-loop threads live for the whole run: engage the generator's
        # chunked prefill immediately instead of waiting out its per-draw
        # auto-detection window (no-op for non-vectorizable distributions).
        # Generators are duck-typed (fig13's queue-replay generator has no
        # prefill), so probe rather than require it.
        prefill = getattr(self.generator, "prefill", None)
        if prefill is not None:
            prefill(64)
        self._issue_next()

    def _issue_next(self) -> None:
        runner = self.runner
        now = runner.scheduler.clock._now
        if now >= runner.end_time:
            return
        op_type, key, value = self.generator.next_operation()
        self._issued_at = now
        self._op_type = op_type
        runner.issue(op_type, key, value, self)

    # -- completion sink ------------------------------------------------------
    def deliver_preliminary(self, value: Any, stamp: Any, latency_ms: float,
                            source: Optional[str] = None) -> None:
        # The thread outlives its operations: only an ICG operation's
        # preliminary is kept, so none leaks into the next operation.
        if self.icg:
            self._had_prelim = True
            self._prelim_value = value
            self._prelim_latency = latency_ms

    def deliver_final(self, value: Any, stamp: Any, latency_ms: float,
                      is_confirmation: bool = False,
                      degraded: bool = False) -> None:
        runner = self.runner
        result = runner.result
        result.total_ops += 1
        if degraded:
            result.degraded_ops += 1
        icg = self.icg
        if icg:
            self.icg = False
            had = self._had_prelim
            prelim_value = self._prelim_value
            prelim_latency = self._prelim_latency
            self._had_prelim = False
            self._prelim_value = self._prelim_latency = None
        if runner._measure_start <= self._issued_at \
                and runner.scheduler.clock._now <= runner._measure_end:
            result.measured_ops += 1
            result.final_latency.record(latency_ms)
            (result.update_latency if self._op_type == "update"
             else result.read_latency).record(latency_ms)
            if icg:
                if prelim_latency is not None:
                    result.preliminary_latency.record(prelim_latency)
                result.divergence.record_outcome(
                    had and prelim_value != value, had_preliminary=had)
        think = runner.think_time_ms
        if think > 0:
            runner.scheduler.schedule(think, self._issue_next)
        else:
            self._issue_next()

    def deliver_error(self, error: Any, latency_ms: float) -> None:
        # A completion without a view: its response time only.
        self.runner.result.failed_ops += 1
        self.icg = self._had_prelim = False
        self._prelim_value = self._prelim_latency = None
        self.deliver_final(None, None, latency_ms)


class ClosedLoopRunner(LoadEngine):
    """Runs N closed-loop client threads over simulated time and aggregates metrics."""

    def __init__(self, scheduler: Scheduler, issue: Callable[..., None],
                 make_generator: Callable[[int], OperationGenerator],
                 threads: int, duration_ms: float = 30_000.0,
                 warmup_ms: float = 5_000.0, cooldown_ms: float = 5_000.0,
                 think_time_ms: float = 0.0, label: str = "run",
                 faults: Optional[Any] = None) -> None:
        if threads <= 0:
            raise ValueError("need at least one client thread")
        super().__init__(scheduler, issue, duration_ms=duration_ms,
                         warmup_ms=warmup_ms, cooldown_ms=cooldown_ms,
                         label=label, faults=faults)
        self.threads = threads
        self.think_time_ms = think_time_ms
        self._threads = [
            _ClientThread(self, i, make_generator(i)) for i in range(threads)
        ]

    def _start_load(self) -> None:
        for thread in self._threads:
            # Start threads at slightly staggered instants so they do not all
            # hit the coordinator in the same event tick.
            self.scheduler.schedule(0.01 * thread.thread_id, thread.start)


class _Session:
    """One lightweight simulated user: a session id plus its workload state.

    Thousands of these share one ``issue`` function (and, underneath it,
    one client/binding) — there is no per-user thread object, just the
    generator that decides what this user asks for next.
    """

    __slots__ = ("session_id", "generator")

    def __init__(self, session_id: int, generator: OperationGenerator) -> None:
        self.session_id = session_id
        self.generator = generator


class _OpenOp:
    """One in-flight open-loop operation: its pooled completion sink.

    The ``deliver_*`` methods account the operation straight into the
    runner's recorders — queue delay (issue minus arrival) added to every
    recorded latency, the measurement window judged on the true arrival
    instant, one queue-delay sample per measured completion — then refill
    the next waiting arrival.
    """

    __slots__ = ("runner", "issued_at", "arrived_at", "op_type", "icg",
                 "_had_prelim", "_prelim_value", "_prelim_latency")

    _pool: list = []
    #: ``[created, recycled]`` — in a list, not class attributes: assigning
    #: a class attribute invalidates the interpreter's attribute caches for
    #: the type, and these move with every operation.
    _counts = [0, 0]

    @classmethod
    def acquire(cls, runner: "OpenLoopRunner", issued_at: float,
                arrived_at: float, op_type: str) -> "_OpenOp":
        pool = cls._pool
        if pool:
            op = pool.pop()
        else:
            cls._counts[0] += 1
            op = cls()
        op.runner = runner
        op.issued_at = issued_at
        op.arrived_at = arrived_at
        op.op_type = op_type
        op.icg = False
        op._had_prelim = False
        op._prelim_value = None
        op._prelim_latency = None
        return op

    def _recycle(self) -> None:
        # Called before completion handling: refilling from the wait queue
        # issues the next operation, which may legitimately reuse this
        # very record.
        self.runner = None
        self._prelim_value = None
        cls = _OpenOp
        cls._counts[1] += 1
        cls._pool.append(self)

    @classmethod
    def pool_stats(cls) -> Dict[str, int]:
        """Counters for the pool-leak tests."""
        created, recycled = cls._counts
        return {"created": created, "recycled": recycled,
                "free": len(cls._pool)}

    # -- completion sink ------------------------------------------------------
    def deliver_preliminary(self, value: Any, stamp: Any, latency_ms: float,
                            source: Optional[str] = None) -> None:
        self._had_prelim = True
        self._prelim_value = value
        self._prelim_latency = latency_ms

    def deliver_final(self, value: Any, stamp: Any, latency_ms: float,
                      is_confirmation: bool = False,
                      degraded: bool = False) -> None:
        runner = self.runner
        issued_at = self.issued_at
        arrived_at = self.arrived_at
        op_type = self.op_type
        icg = self.icg
        had = self._had_prelim
        prelim_value = self._prelim_value
        prelim_latency = self._prelim_latency
        self._recycle()
        runner._in_flight -= 1
        result = runner.result
        result.total_ops += 1
        if degraded:
            result.degraded_ops += 1
        completed_at = runner.scheduler.clock._now
        if runner._measure_start <= arrived_at \
                and completed_at <= runner._measure_end:
            queue_delay = issued_at - arrived_at
            result.measured_ops += 1
            result.admission.record_queue_delay(queue_delay)
            if queue_delay:
                latency_ms += queue_delay
            result.final_latency.record(latency_ms)
            (result.update_latency if op_type == "update"
             else result.read_latency).record(latency_ms)
            if icg:
                if prelim_latency is not None:
                    if queue_delay:
                        prelim_latency += queue_delay
                    result.preliminary_latency.record(prelim_latency)
                result.divergence.record_outcome(
                    had and prelim_value != value, had_preliminary=had)
        runner._refill()

    def deliver_error(self, error: Any, latency_ms: float) -> None:
        # A completion without a view: its response time only.
        self.runner.result.failed_ops += 1
        self.icg = False
        self.deliver_final(None, None, latency_ms)


class OpenLoopRunner(LoadEngine):
    """Issues operations when an arrival process says users arrive.

    Admitted arrivals are spread round-robin over ``sessions`` lightweight
    client sessions (each with its own operation generator, so per-user
    workload state — e.g. the *Latest* distribution's insertion frontier —
    stays per-user; shed arrivals consume neither a session turn nor a
    generator draw).  Admission control bounds concurrency:

    * ``max_in_flight=None`` — no bound: every arrival is issued
      immediately (pure open loop; latency is the store's own).
    * ``max_in_flight=N, policy="queue"`` — arrivals beyond N wait in a
      FIFO queue (bounded by ``queue_limit``; overflow is shed).  Queue
      delay is accounted separately and added to the recorded response
      times — this is the component that explodes at saturation.
    * ``max_in_flight=N, policy="shed"`` — arrivals beyond N are dropped
      on the spot (load shedding; latency stays flat, goodput saturates).

    Fault scripts compose exactly as with the closed loop: the schedule is
    armed relative to the run's start, independent of the arrival shape.
    """

    POLICIES = ("queue", "shed")

    def __init__(self, scheduler: Scheduler, issue: Callable[..., None],
                 make_generator: Callable[[int], OperationGenerator],
                 arrivals: ArrivalProcess, sessions: int = 100,
                 duration_ms: float = 30_000.0, warmup_ms: float = 5_000.0,
                 cooldown_ms: float = 5_000.0, label: str = "open-loop",
                 faults: Optional[Any] = None,
                 max_in_flight: Optional[int] = None, policy: str = "queue",
                 queue_limit: Optional[int] = None) -> None:
        if sessions <= 0:
            raise ValueError("need at least one client session")
        if policy not in self.POLICIES:
            raise ValueError(f"unknown admission policy {policy!r}; "
                             f"choose from {list(self.POLICIES)}")
        if max_in_flight is not None and max_in_flight <= 0:
            raise ValueError("max_in_flight must be positive (or None)")
        if queue_limit is not None and queue_limit < 0:
            raise ValueError("queue_limit must be non-negative (or None)")
        super().__init__(scheduler, issue, duration_ms=duration_ms,
                         warmup_ms=warmup_ms, cooldown_ms=cooldown_ms,
                         label=label, faults=faults,
                         admission=AdmissionStats())
        self.arrivals = arrivals
        self.max_in_flight = max_in_flight
        self.policy = policy
        self.queue_limit = queue_limit
        self._sessions = [
            _Session(i, make_generator(i)) for i in range(sessions)
        ]
        self._next_session = 0
        self._in_flight = 0
        #: Waiting arrivals: (session_id, op_type, key, value, arrived_at).
        self._waiting: Deque[Tuple[int, str, str, Optional[str], float]] = deque()
        self._next_arrival_at = 0.0

    @property
    def admission(self) -> AdmissionStats:
        return self.result.admission  # type: ignore[return-value]

    # -- arrival scheduling --------------------------------------------------
    def _start_load(self) -> None:
        self._next_arrival_at = self.start_time
        self._schedule_next_arrival()

    def _schedule_next_arrival(self) -> None:
        at = self._next_arrival_at + self.arrivals.next_gap_ms()
        self._next_arrival_at = at
        if at >= self.end_time:
            return
        self.scheduler.schedule_call_at(at, self._on_arrival)

    def _on_arrival(self) -> None:
        now = self.scheduler.now()
        measured = self.in_measurement_window(now)
        admission = self.admission
        admission.record_arrival(measured)
        # Decide the arrival's fate *before* consuming a session or a
        # generator draw: a shed arrival must not advance either, so the
        # session rotation takes one step per issued operation, in issue
        # order.  (Whenever the wait queue is non-empty every in-flight slot
        # is taken — completions refill from the queue first — so admitted
        # operations are issued in arrival order under queueing too.)
        can_issue = (self.max_in_flight is None
                     or self._in_flight < self.max_in_flight)
        can_queue = self.policy == "queue" and (
            self.queue_limit is None
            or len(self._waiting) < self.queue_limit)
        if not (can_issue or can_queue):
            admission.record_shed(measured)
            self._schedule_next_arrival()
            return
        session = self._sessions[self._next_session]
        self._next_session += 1
        if self._next_session == len(self._sessions):
            self._next_session = 0
        op_type, key, value = session.generator.next_operation()
        if can_issue:
            self._issue_admitted(session.session_id, op_type, key, value,
                                 arrived_at=now)
        else:
            self._waiting.append((session.session_id, op_type, key, value,
                                  now))
            admission.record_queue_depth(len(self._waiting))
        self._schedule_next_arrival()

    # -- issuing and completion ----------------------------------------------
    def _issue_admitted(self, session_id: int, op_type: str, key: str,
                        value: Optional[str], arrived_at: float) -> None:
        now = self.scheduler.now()
        self._in_flight += 1
        self.admission.record_issue(self._in_flight)
        self.issue(op_type, key, value,
                   _OpenOp.acquire(self, now, arrived_at, op_type), session_id)

    def _refill(self) -> None:
        """Issue the next waiting arrival once an in-flight slot freed up."""
        if self._waiting and (self.max_in_flight is None
                              or self._in_flight < self.max_in_flight):
            session_id, queued_op, key, value, arrived_at = \
                self._waiting.popleft()
            self._issue_admitted(session_id, queued_op, key, value,
                                 arrived_at)
