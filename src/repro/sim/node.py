"""Simulated nodes and their processing queues.

A :class:`Node` is a named endpoint in a region that receives messages from
the :class:`~repro.sim.network.Network`.  Every node owns a
:class:`ProcessingQueue`, a single-server FIFO; :meth:`Node._enqueue` is the
one way to charge it a service time for a piece of work.  Under light load
the queue adds only the service time; as offered load approaches
``1 / service_time`` the queueing delay grows, which is what produces the
latency-vs-throughput curves in Figures 6 and 11.
"""

from __future__ import annotations

import math
from heapq import heappush
from typing import Any, Callable, Optional

from repro.sim.network import Message, Network
from repro.sim.scheduler import Scheduler


class ProcessingQueue:
    """Single-server FIFO work queue with deterministic service times.

    Jobs are charged by :meth:`Node._enqueue`; the queue keeps the busy
    horizon and the counters.
    """

    __slots__ = ("_scheduler", "_busy_until", "jobs_processed", "busy_time")

    def __init__(self, scheduler: Scheduler) -> None:
        self._scheduler = scheduler
        self._busy_until = 0.0
        self.jobs_processed = 0
        self.busy_time = 0.0

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
                 host: Optional[str] = None) -> None:
        self.name = name
        self.region = region
        self.network = network
        self.scheduler = network.scheduler
        self.host = host if host is not None else name
        self.alive = True
        #: Multiplier on every service time charged via :meth:`_enqueue`;
        #: fault injection raises it to model a slow (but live) replica.
        self.slowdown_factor = 1.0
        self.queue = ProcessingQueue(self.scheduler)
        #: message kind -> bound ``on_<kind>`` handler, filled on first
        #: dispatch (a ``getattr`` with string formatting per message adds
        #: up on the delivery hot path).
        self._handler_cache: dict = {}
        #: destination name -> network route entry, for
        #: ``Network.fused_send_to``; routes never change, so nothing
        #: drops it.
        self._fused_routes: dict = {}
        network.register(self)

    # -- lifecycle ---------------------------------------------------------
    def crash(self) -> None:
        """Stop the node: in-flight messages to it are dropped."""
        self.alive = False

    def recover(self) -> None:
        self.alive = True
        self.reconnected()

    def reconnected(self) -> None:
        """Recovered, or a partition healed: parked work may resume."""

    def slow_down(self, factor: float) -> None:
        """Scale all future service times by ``factor`` (≥ 1 slows the node)."""
        if type(factor) is bool or not 0 < factor < math.inf:
            raise ValueError(
                f"slowdown factor must be positive and finite, got {factor!r}")
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

    # -- control-plane hops -------------------------------------------------
    def _send_control(self, size_bytes: int, dst: "Node",
                      handler: Callable[..., Any], *args: Any) -> None:
        """Send node ``dst`` a hop that runs ``handler(*args)`` at delivery
        through its :meth:`_receive_control`; ``handler`` is a method of
        ``dst`` or of an object ``dst`` holds (its election, its takeover)."""
        self.network.fused_send_to(self, dst.name, size_bytes,
                                   dst._receive_control, (handler, args))

    def _receive_control(self, handler: Callable[..., Any],
                         args: tuple) -> None:
        """Every control-plane hop's one delivery step: ``Network._deliver``
        minus the :class:`Message`."""
        if self.alive:
            self.network.messages_delivered += 1
            handler(*args)
        else:
            self.network.messages_dropped += 1

    # -- local work --------------------------------------------------------
    def _enqueue(self, service_time_ms: float, fn: Callable[..., Any],
                 args: tuple) -> None:
        """Run ``fn(*args)`` once this node's queue has served a job of
        ``service_time_ms`` (scaled by :attr:`slowdown_factor`).

        The scheduler insert is inlined (``finish >= now`` holds by
        construction: every cost comes from a config that rejects negative
        values) — queue jobs are one of the two dominant event classes.
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
