"""Health-aware routing of transaction traffic to the coordinator group.

The :class:`LoadBalancer` composes one :class:`CircuitBreaker` per
coordinator: timeouts and fault signals count toward opening a node's
breaker (marking it degraded), an open breaker routes traffic elsewhere,
and after the reset window a single probe request is admitted — success
marks the node recovered.  The transaction manager is the only client.
"""

from __future__ import annotations

from dataclasses import field
from typing import Dict, List, Optional, Sequence

from repro.txn.config import BREAKER_FAILURE_THRESHOLD, BREAKER_RESET_MS
from repro.workloads.records import POSITIVE, check_fields, spec


class BreakerState:
    """States of a :class:`CircuitBreaker` (string constants, not an Enum,
    so records and tables can carry them without conversion)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@spec
class CircuitBreaker:
    """Per-node health automaton: closed → open → half-open → closed.

    ``failure_threshold`` consecutive failures open the breaker; after
    ``reset_timeout_ms`` it half-opens and admits a single probe.  A probe
    success closes it (clearing the failure count), a probe failure re-opens
    it for another full timeout.
    """

    failure_threshold: int = field(default=3, metadata=POSITIVE)
    reset_timeout_ms: float = 1_000.0
    state: str = BreakerState.CLOSED
    failures: int = 0
    opened_at_ms: float = 0.0
    #: Lifetime counters for health reporting.
    times_opened: int = 0
    probes_sent: int = 0
    probes_succeeded: int = 0
    _probe_in_flight: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        check_fields(self)

    def allow(self, now_ms: float) -> bool:
        """Whether a request may be routed to this node right now.

        In the half-open state exactly one probe is admitted per window;
        the answer for that probe also increments :attr:`probes_sent`.
        """
        if self.state == BreakerState.CLOSED:
            return True
        if self.state == BreakerState.OPEN:
            if now_ms - self.opened_at_ms >= self.reset_timeout_ms:
                self.state = BreakerState.HALF_OPEN
                self._probe_in_flight = False
            else:
                return False
        # Half-open: admit a single probe at a time.
        if self._probe_in_flight:
            return False
        self._probe_in_flight = True
        self.probes_sent += 1
        return True

    def record_success(self) -> None:
        """A routed request completed: close the breaker."""
        if self.state == BreakerState.HALF_OPEN:
            self.probes_succeeded += 1
        self.state = BreakerState.CLOSED
        self.failures = 0
        self._probe_in_flight = False

    def record_failure(self, now_ms: float) -> None:
        """A routed request failed or timed out: count toward opening."""
        if self.state == BreakerState.HALF_OPEN:
            # The probe failed: straight back to open for a fresh window.
            self.state = BreakerState.OPEN
            self.opened_at_ms = now_ms
            self.times_opened += 1
            self._probe_in_flight = False
            return
        self.failures += 1
        if self.state == BreakerState.CLOSED \
                and self.failures >= self.failure_threshold:
            self.state = BreakerState.OPEN
            self.opened_at_ms = now_ms
            self.times_opened += 1

    def is_open(self, now_ms: float) -> bool:
        """True while the breaker refuses traffic (open and not yet due)."""
        return self.state == BreakerState.OPEN \
            and now_ms - self.opened_at_ms < self.reset_timeout_ms


class LoadBalancer:
    """Round-robin over healthy nodes, with circuit-breaker health tracking."""

    def __init__(self, nodes: Sequence[str],
                 failure_threshold: int = BREAKER_FAILURE_THRESHOLD,
                 reset_timeout_ms: float = BREAKER_RESET_MS) -> None:
        if not nodes:
            raise ValueError("a load balancer needs at least one node")
        self.nodes: List[str] = list(nodes)
        self.breakers: Dict[str, CircuitBreaker] = {
            name: CircuitBreaker(failure_threshold=failure_threshold,
                                 reset_timeout_ms=reset_timeout_ms)
            for name in self.nodes}
        self._rr = 0
        # Instrumentation.
        self.picks = 0
        self.skipped_unhealthy = 0
        self.fail_open_picks = 0

    def pick(self, now_ms: float, preferred: Optional[str] = None,
             avoid: Optional[str] = None) -> str:
        """Choose the next node to route to.

        ``preferred`` (e.g. a redirect hint naming the active coordinator)
        wins if its breaker admits traffic; otherwise round-robin over nodes
        whose breakers allow a request, skipping ``avoid`` (the node that
        just failed) when any alternative exists.  If every breaker refuses,
        fail open: routing nowhere is strictly worse than probing a node
        that might have recovered.
        """
        self.picks += 1
        if preferred is not None and preferred in self.breakers \
                and self.breakers[preferred].allow(now_ms):
            return preferred
        count = len(self.nodes)
        for offset in range(count):
            name = self.nodes[(self._rr + offset) % count]
            if name == avoid and count > 1:
                continue
            if self.breakers[name].allow(now_ms):
                self._rr = (self._rr + offset + 1) % count
                return name
            self.skipped_unhealthy += 1
        self.fail_open_picks += 1
        name = self.nodes[self._rr % count]
        self._rr = (self._rr + 1) % count
        return name

    def record_failure(self, name: str, now_ms: float) -> None:
        """A request to ``name`` timed out or errored."""
        breaker = self.breakers.get(name)
        if breaker is not None:
            breaker.record_failure(now_ms)

    def record_success(self, name: str) -> None:
        """A request to ``name`` completed; closes its breaker if open."""
        breaker = self.breakers.get(name)
        if breaker is not None:
            breaker.record_success()

    # -- health reporting ---------------------------------------------------
    def health(self) -> Dict[str, str]:
        return {name: breaker.state for name, breaker in self.breakers.items()}

    def degraded_nodes(self) -> List[str]:
        return [name for name, breaker in self.breakers.items()
                if breaker.state != BreakerState.CLOSED]

    def times_opened(self) -> int:
        return sum(b.times_opened for b in self.breakers.values())

    def probes_succeeded(self) -> int:
        return sum(b.probes_succeeded for b in self.breakers.values())
