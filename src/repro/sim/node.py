"""Simulated nodes and their processing queues.

A :class:`Node` is a named endpoint in a region that receives messages from
the :class:`~repro.sim.network.Network`.  Server nodes additionally own a
:class:`ProcessingQueue`, a single-server FIFO that charges a service time to
every piece of work.  Under light load the queue adds only the service time;
as offered load approaches ``1 / service_time`` the queueing delay grows,
which is what produces the latency-vs-throughput curves in Figures 6 and 11.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Optional

from repro.sim.network import Message, Network
from repro.sim.scheduler import Scheduler


class ProcessingQueue:
    """Single-server FIFO work queue with deterministic service times."""

    __slots__ = ("_scheduler", "_busy_until", "jobs_processed", "busy_time")

    def __init__(self, scheduler: Scheduler) -> None:
        self._scheduler = scheduler
        self._busy_until = 0.0
        self.jobs_processed = 0
        self.busy_time = 0.0

    def submit(self, service_time_ms: float,
               fn: Callable[..., Any], *args: Any, **kwargs: Any) -> float:
        """Enqueue a job; ``fn`` runs when the server finishes it.

        Returns:
            The absolute simulated time at which the job will complete.
        """
        if service_time_ms < 0:
            raise ValueError("service time must be non-negative")
        now = self._scheduler.clock._now
        start = now if now > self._busy_until else self._busy_until
        finish = start + service_time_ms
        self._busy_until = finish
        self.jobs_processed += 1
        self.busy_time += service_time_ms
        # Queue jobs are never cancelled: take the no-handle fast path.
        self._scheduler.schedule_call_at(finish, fn, args, kwargs)
        return finish

    def queue_delay(self) -> float:
        """Time a job submitted right now would wait before service begins."""
        return max(0.0, self._busy_until - self._scheduler.now())

    def utilization(self, elapsed_ms: float) -> float:
        """Fraction of ``elapsed_ms`` the server spent busy."""
        if elapsed_ms <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed_ms)


class Node:
    """Base class for every simulated endpoint (replica, server, or client)."""

    def __init__(self, name: str, region: str, network: Network,
                 host: Optional[str] = None,
                 service_time_ms: float = 0.0) -> None:
        self.name = name
        self.region = region
        self.network = network
        self.scheduler = network.scheduler
        self.host = host if host is not None else name
        self.alive = True
        self.service_time_ms = service_time_ms
        #: Multiplier on every service time charged via :meth:`process`;
        #: fault injection raises it to model a slow (but live) replica.
        self.slowdown_factor = 1.0
        self.queue = ProcessingQueue(self.scheduler)
        #: message kind -> bound ``on_<kind>`` handler, filled on first
        #: dispatch (a ``getattr`` with string formatting per message adds
        #: up on the delivery hot path).
        self._handler_cache: dict = {}
        #: destination name -> network route entry, for
        #: ``Network.fused_send_to``; see :meth:`_drop_routes`.
        self._fused_routes: dict = {}
        network.register(self)

    # -- lifecycle ---------------------------------------------------------
    def crash(self) -> None:
        """Stop the node: in-flight messages to it are dropped."""
        self.alive = False

    def recover(self) -> None:
        self.alive = True

    def _drop_routes(self) -> None:
        """The network's routes changed (a topology edit, ``reset_stats``):
        forget everything derived from them.  Subclasses that cache more
        than :attr:`_fused_routes` extend this."""
        self._fused_routes.clear()

    def slow_down(self, factor: float) -> None:
        """Scale all future service times by ``factor`` (≥ 1 slows the node)."""
        if factor <= 0:
            raise ValueError("slowdown factor must be positive")
        self.slowdown_factor = factor

    def restore_speed(self) -> None:
        self.slowdown_factor = 1.0

    # -- messaging ---------------------------------------------------------
    def send(self, dst: str, kind: str, payload: Optional[dict] = None,
             size_bytes: Optional[int] = None) -> Message:
        """Send a message to another node."""
        return self.network.send(self.name, dst, kind, payload, size_bytes)

    def handle_message(self, message: Message) -> None:
        """Dispatch an incoming message to ``on_<kind>`` if defined.

        The network delivers through :attr:`_handler_cache` directly once a
        kind has been resolved here, so dispatch work is paid once per kind.
        """
        kind = message.kind
        handler = self._handler_cache.get(kind)
        if handler is None:
            handler = getattr(self, f"on_{kind}", None)
            if handler is None:
                raise NotImplementedError(
                    f"{type(self).__name__} ({self.name}) has no handler for "
                    f"message kind '{message.kind}'"
                )
            self._handler_cache[kind] = handler
        handler(message)

    # -- local work --------------------------------------------------------
    def process(self, fn: Callable[..., Any], *args: Any,
                service_time_ms: Optional[float] = None,
                **kwargs: Any) -> float:
        """Run ``fn`` after this node's processing queue serves the job.

        Inlines :meth:`ProcessingQueue.submit` — every handled message goes
        through here, and the extra call layer is measurable.
        """
        cost = self.service_time_ms if service_time_ms is None else service_time_ms
        cost *= self.slowdown_factor
        if cost < 0:
            raise ValueError("service time must be non-negative")
        queue = self.queue
        scheduler = queue._scheduler
        now = scheduler.clock._now
        busy = queue._busy_until
        start = now if now > busy else busy
        finish = start + cost
        queue._busy_until = finish
        queue.jobs_processed += 1
        queue.busy_time += cost
        scheduler.schedule_call_at(finish, fn, args, kwargs or None)
        return finish

    # -- record-carried work --------------------------------------------------
    def _enqueue(self, service_time_ms: float, fn: Callable[..., Any],
                 args: tuple) -> None:
        """Lean :meth:`process`: no kwargs, no finish-time return.

        The scheduler insert is inlined too (``finish >= now`` holds by
        construction, so the past-check is redundant here) — queue jobs are
        one of the two dominant event classes.
        """
        cost = service_time_ms * self.slowdown_factor
        queue = self.queue
        scheduler = queue._scheduler
        now = scheduler.clock._now
        busy = queue._busy_until
        start = now if now > busy else busy
        finish = start + cost
        queue._busy_until = finish
        queue.jobs_processed += 1
        queue.busy_time += cost
        seq = scheduler._seq
        scheduler._seq = seq + 1
        heappush(scheduler._heap, (finish, seq, fn, args, None))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, region={self.region!r})"
