"""An in-memory binding for tests, examples, and unit benchmarks.

:class:`LocalStore` is a single-process key-value store (plus FIFO queues)
that remembers the previous value of every key; :class:`LocalBinding` exposes
it under two consistency levels:

* ``WEAK``  — may return the *previous* value of a key with a configurable
  probability, modelling the staleness an eventually consistent replica would
  exhibit;
* ``STRONG`` — always returns the authoritative value.

When given a :class:`~repro.sim.scheduler.Scheduler`, view delivery is
delayed by configurable latencies so the weak/strong latency gap of the paper
can be reproduced without a full cluster simulation.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.bindings.base import Binding, complete_after
from repro.core.consistency import ConsistencyLevel, STRONG, WEAK
from repro.core.correctable import Correctable
from repro.core.errors import OperationError
from repro.core.operations import Operation
from repro.sim.scheduler import Scheduler
from repro.sim.topology import non_negative


class LocalStore:
    """A toy storage engine: versioned key-value pairs plus named FIFO queues."""

    def __init__(self) -> None:
        self._data: Dict[str, Any] = {}
        self._previous: Dict[str, Any] = {}
        self._queues: Dict[str, Deque[Any]] = {}

    # -- key-value ---------------------------------------------------------
    def get(self, key: str) -> Any:
        if key not in self._data:
            raise OperationError(f"key not found: {key!r}")
        return self._data[key]

    def get_stale(self, key: str) -> Any:
        """The previous value of ``key`` (falls back to the current one)."""
        if key in self._previous:
            return self._previous[key]
        return self.get(key)

    def put(self, key: str, value: Any) -> None:
        if key in self._data:
            self._previous[key] = self._data[key]
        self._data[key] = value

    def contains(self, key: str) -> bool:
        return key in self._data

    def keys(self) -> List[str]:
        return list(self._data.keys())

    # -- queues --------------------------------------------------------------
    def queue(self, name: str) -> Deque[Any]:
        return self._queues.setdefault(name, deque())

    def enqueue(self, name: str, item: Any) -> int:
        q = self.queue(name)
        q.append(item)
        return len(q)

    def dequeue(self, name: str) -> Any:
        q = self.queue(name)
        if not q:
            return None
        return q.popleft()

    def peek(self, name: str) -> Any:
        q = self.queue(name)
        return q[0] if q else None

    def queue_length(self, name: str) -> int:
        return len(self.queue(name))


class LocalBinding(Binding):
    """Binding over a :class:`LocalStore` with optional delays and staleness."""

    def __init__(self, store: Optional[LocalStore] = None,
                 scheduler: Optional[Scheduler] = None,
                 weak_delay_ms: float = 2.0,
                 strong_delay_ms: float = 50.0,
                 stale_probability: float = 0.0,
                 rng: Optional[random.Random] = None) -> None:
        if not 0 <= stale_probability <= 1:
            raise ValueError(f"stale_probability must be in [0, 1], "
                             f"got {stale_probability}")
        self.store = store if store is not None else LocalStore()
        self.scheduler = scheduler
        self.weak_delay_ms = non_negative("weak_delay_ms", weak_delay_ms)
        self.strong_delay_ms = non_negative("strong_delay_ms", strong_delay_ms)
        self.stale_probability = stale_probability
        self._rng = rng if rng is not None else random.Random(0)
        self.operations_submitted = 0
        if scheduler is not None:
            self.clock = scheduler.now

    # -- Binding API ---------------------------------------------------------
    def consistency_levels(self) -> List[ConsistencyLevel]:
        return [WEAK, STRONG]

    def submit_operation(self, operation: Operation,
                         levels: List[ConsistencyLevel],
                         correctable: Correctable) -> None:
        levels = self.validate_levels(levels)
        self.operations_submitted += 1
        if WEAK in levels:
            complete_after(self.scheduler, self.weak_delay_ms, self._execute,
                           operation, True, correctable)
        if STRONG in levels:
            complete_after(self.scheduler, self.strong_delay_ms,
                           self._execute, operation, False, correctable)

    # -- execution -------------------------------------------------------------
    def _execute(self, operation: Operation, weak: bool) -> Any:
        name = operation.name
        key = operation.key
        if name == "read":
            if weak and self.stale_probability > 0 and \
                    self._rng.random() < self.stale_probability:
                return self.store.get_stale(key)
            return self.store.get(key)
        if name == "write":
            value = operation.args[0]
            if not weak:
                # Only the authoritative (strong) execution mutates the store;
                # the weak view is an optimistic acknowledgement.
                self.store.put(key, value)
            return value
        if name == "enqueue":
            item = operation.args[0]
            if weak:
                return self.store.queue_length(key) + 1
            return self.store.enqueue(key, item)
        if name == "dequeue":
            if weak:
                # Simulate the dequeue on local state: report the head and the
                # stock that would remain after taking it (same semantics as
                # the Correctable ZooKeeper preliminary).
                head = self.store.peek(key)
                remaining = max(0, self.store.queue_length(key) - 1) \
                    if head is not None else 0
                return {"item": head, "remaining": remaining}
            item = self.store.dequeue(key)
            return {"item": item, "remaining": self.store.queue_length(key)}
        raise self.unsupported_operation(operation)
