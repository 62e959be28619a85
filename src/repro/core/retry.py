"""Shared robustness policies: retry/backoff, deadlines, circuit breakers.

Every stack in the reproduction retries: the Cassandra client fails a timed
out request over to its next contact, the ZooKeeper client re-submits to the
next server of the ensemble, and the transaction layer re-drives prepares
and commit decisions through coordinator failover.  Before this module each
loop hand-rolled its own attempt counting; now they share one policy object
so retry budgets, backoff shapes, and jitter determinism cannot drift apart.

Three pieces:

* :class:`RetryPolicy` — bounded attempts with capped exponential backoff
  and *deterministic* seeded jitter (a jitter stream is derived from a seed
  and a label, so two runs of the same experiment draw the same delays).
* :class:`Deadline` — an absolute point in simulated time carried along a
  request chain (client → coordinator → participant) so every hop can stop
  retrying work whose caller has already given up.
* :class:`CircuitBreaker` — the classic closed / open / half-open automaton
  used by the transaction load balancer to route around unhealthy nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.sim.rand import derive_rng


@dataclass(frozen=True)
class RetryPolicy:
    """A bounded-retry policy with capped exponential backoff.

    ``max_retries`` counts *re-sends*: a policy with ``max_retries=2`` allows
    an original attempt plus two retries.  Backoff for retry ``attempt``
    (1-based) is ``min(cap, base * multiplier**(attempt-1))`` plus jitter
    drawn uniformly from ``[0, jitter_ms]``.  With ``base_delay_ms=0`` (the
    default) the policy degenerates to the historical immediate-retry loops,
    which is what keeps the committed figure tables byte-identical.

    Jitter is deterministic: it is drawn from a stream derived via
    :func:`~repro.sim.rand.derive_rng` from ``(seed, label)``, so the policy
    is safe to use inside the simulator's determinism contract.
    """

    max_retries: int = 2
    base_delay_ms: float = 0.0
    multiplier: float = 2.0
    cap_ms: float = 1_000.0
    jitter_ms: float = 0.0
    #: Seed/label for the jitter stream; only consulted when jitter_ms > 0.
    seed: int = 0
    label: str = "retry"

    def __post_init__(self) -> None:
        if not self.max_retries >= 0:
            raise ValueError("max_retries must be non-negative")
        if not (self.base_delay_ms >= 0 and self.cap_ms >= 0
                and self.jitter_ms >= 0):
            raise ValueError("delays must be non-negative")
        if not self.multiplier >= 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.jitter_ms > 0:
            # One private stream per policy instance: drawing jitter never
            # perturbs any other consumer of the experiment seed.
            object.__setattr__(self, "_jitter_rng",
                               derive_rng(self.seed, f"jitter:{self.label}"))

    def should_retry(self, attempts: int) -> bool:
        """Whether a request that already made ``attempts`` retries may retry."""
        return attempts < self.max_retries

    def backoff_ms(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based).

        Returns 0.0 for an immediate-retry policy; callers treat a zero
        delay as "re-send synchronously" so no extra scheduler event is
        created (preserving historical event traces).
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        if self.base_delay_ms <= 0 and self.jitter_ms <= 0:
            return 0.0
        delay = 0.0
        if self.base_delay_ms > 0:
            delay = min(self.cap_ms,
                        self.base_delay_ms * self.multiplier ** (attempt - 1))
        if self.jitter_ms > 0:
            delay += self._jitter_rng.uniform(0.0, self.jitter_ms)  # type: ignore[attr-defined]
        return delay

    def total_budget_ms(self, timeout_ms: float) -> float:
        """Worst-case time a request governed by this policy can occupy:
        every attempt times out and every backoff runs to its maximum."""
        attempts = self.max_retries + 1
        budget = attempts * timeout_ms
        for attempt in range(1, self.max_retries + 1):
            budget += self.backoff_upper_bound_ms(attempt)
        return budget

    def backoff_upper_bound_ms(self, attempt: int) -> float:
        """The largest delay :meth:`backoff_ms` can return for ``attempt``."""
        if self.base_delay_ms <= 0 and self.jitter_ms <= 0:
            return 0.0
        delay = 0.0
        if self.base_delay_ms > 0:
            delay = min(self.cap_ms,
                        self.base_delay_ms * self.multiplier ** (attempt - 1))
        return delay + self.jitter_ms

    @classmethod
    def immediate(cls, max_retries: int) -> "RetryPolicy":
        """The historical policy: bounded attempts, zero backoff."""
        return cls(max_retries=max_retries)


@dataclass(frozen=True)
class Deadline:
    """An absolute give-up time propagated along a request chain.

    Deadlines travel in message payloads as plain floats (absolute simulated
    milliseconds), so a participant can honour the transaction client's
    budget without knowing anything about the hops in between.  ``None``
    budgets produce an infinite deadline that never expires.
    """

    expires_at_ms: float = math.inf

    @classmethod
    def after(cls, now_ms: float, budget_ms: Optional[float]) -> "Deadline":
        """The deadline ``budget_ms`` from ``now_ms`` (infinite if None)."""
        if budget_ms is None:
            return cls()
        if not budget_ms >= 0:
            raise ValueError("budget must be non-negative")
        return cls(expires_at_ms=now_ms + budget_ms)

    def remaining_ms(self, now_ms: float) -> float:
        """Budget left at ``now_ms`` (never negative; inf when unbounded)."""
        return max(0.0, self.expires_at_ms - now_ms)

    def expired(self, now_ms: float) -> bool:
        return now_ms >= self.expires_at_ms

    def clamp_timeout(self, now_ms: float, timeout_ms: float) -> float:
        """``timeout_ms`` shortened so it never overruns the deadline."""
        return min(timeout_ms, self.remaining_ms(now_ms))


class BreakerState:
    """States of a :class:`CircuitBreaker` (string constants, not an Enum,
    so records and tables can carry them without conversion)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass
class CircuitBreaker:
    """Per-node health automaton: closed → open → half-open → closed.

    ``failure_threshold`` consecutive failures open the breaker; after
    ``reset_timeout_ms`` it half-opens and admits a single probe.  A probe
    success closes it (clearing the failure count), a probe failure re-opens
    it for another full timeout.
    """

    failure_threshold: int = 3
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
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be positive")
        if not self.reset_timeout_ms >= 0:
            raise ValueError("reset_timeout_ms must be non-negative")

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
