"""Configuration knobs for the transaction layer."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


@dataclass
class TxnConfig:
    """Tuning for the 2PC coordinator group, participants, and clients.

    The defaults are sized for the fault benchmarks' multi-second runs:
    prepare/decision timeouts well above a WAN round trip, heartbeat-driven
    coordinator failure detection inside a second, and client retry budgets
    that survive one coordinator takeover.
    """

    #: Coordinator-side timeout for collecting prepare votes (ms).
    prepare_timeout_ms: float = 400.0
    #: Simulated durable-decision write at the coordinator (ms).  The window
    #: between the speculative PREPARED notice and the decision becoming
    #: durable — a coordinator crash inside it loses the decision, which is
    #: exactly when the speculative view turns out wrong.
    decision_log_ms: float = 2.0
    #: Redelivery period for commit/abort decisions not yet acked by every
    #: participant (ms); covers participants that were crashed or partitioned
    #: away when the decision first went out.
    decision_retry_ms: float = 300.0
    #: Active-coordinator heartbeat period (ms); 0 disables failure detection
    #: (and with it coordinator failover).
    heartbeat_interval_ms: float = 100.0
    #: A standby that has heard no active-coordinator heartbeat for this long
    #: suspects a crash.  Standbys stagger by rank so exactly one survivor
    #: takes over: standby ``r`` fires after ``(1 + r)`` multiples of this.
    coordinator_timeout_ms: float = 450.0
    #: Re-probe period for participants that have not answered a takeover
    #: state request (ms); recovery blocks on every participant, so probes
    #: continue until crashed participants come back.
    takeover_probe_ms: float = 250.0
    #: Client-side timeout for one transaction attempt (ms); 0 disables.
    client_timeout_ms: float = 1_200.0
    #: How many times the client re-submits a timed-out transaction (after
    #: the manager's capped exponential backoff).
    client_retries: int = 3
    #: End-to-end transaction budget (ms): the absolute deadline carried in
    #: every message of the transaction (client → coordinator → participant),
    #: after which any hop refuses further work on it.
    txn_deadline_ms: float = 6_000.0
    #: Load-balancer circuit breakers: consecutive failures to open, and how
    #: long an open breaker rejects before half-opening a probe.
    breaker_failure_threshold: int = 2
    breaker_reset_ms: float = 800.0
    #: CPU time a participant spends validating + logging one prepare (ms).
    prepare_service_ms: float = 0.4
    #: CPU time a participant spends applying one commit (ms).
    commit_service_ms: float = 0.5
    #: CPU time the coordinator spends per protocol step (ms).
    coordinator_service_ms: float = 0.3
    #: Wire sizing (bytes).
    key_size_bytes: int = 20
    value_size_bytes: int = 100

    def __post_init__(self) -> None:
        # A timeout already says "never" with 0, so inf means nothing here.
        for field in fields(self):
            if not 0 <= getattr(self, field.name) < math.inf:
                raise ValueError(f"{field.name} must be non-negative and finite")
        # A zero redelivery or probe period reschedules itself at the same
        # instant for as long as a participant stays silent, so simulated
        # time never advances; a zero timeout or budget expires every
        # transaction on arrival.
        for name in ("prepare_timeout_ms", "decision_retry_ms",
                     "takeover_probe_ms", "txn_deadline_ms"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be positive")
        if self.heartbeat_interval_ms > 0 and not (
                self.coordinator_timeout_ms > self.heartbeat_interval_ms):
            raise ValueError(
                "coordinator_timeout_ms must exceed heartbeat_interval_ms, "
                "or every standby suspects a healthy coordinator")
