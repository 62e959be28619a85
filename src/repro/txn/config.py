"""Configuration knobs for the transaction layer."""

from __future__ import annotations

from dataclasses import field

from repro.workloads.records import POSITIVE, check_fields, spec


@spec
class TxnConfig:
    """Tuning for the 2PC coordinator group, participants, and clients.

    The defaults are sized for the fault benchmarks' multi-second runs:
    prepare/decision timeouts well above a WAN round trip, heartbeat-driven
    coordinator failure detection inside a second, and client retry budgets
    that survive one coordinator takeover.
    """

    #: Coordinator-side timeout for collecting prepare votes (ms).
    prepare_timeout_ms: float = field(default=400.0, metadata=POSITIVE)
    #: Simulated durable-decision write at the coordinator (ms).  The window
    #: between the speculative PREPARED notice and the decision becoming
    #: durable — a coordinator crash inside it loses the decision, which is
    #: exactly when the speculative view turns out wrong.
    decision_log_ms: float = 2.0
    #: Redelivery period for commit/abort decisions not yet acked by every
    #: participant (ms); covers participants that were crashed or partitioned
    #: away when the decision first went out.
    decision_retry_ms: float = field(default=300.0, metadata=POSITIVE)
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
    takeover_probe_ms: float = field(default=250.0, metadata=POSITIVE)
    #: Client-side timeout for one transaction attempt (ms); 0 disables.
    client_timeout_ms: float = 1_200.0
    #: How many times the client re-submits a timed-out transaction (after
    #: the manager's capped exponential backoff).
    client_retries: int = 3
    #: End-to-end transaction budget (ms): the absolute deadline carried in
    #: every message of the transaction (client → coordinator → participant),
    #: after which any hop refuses further work on it.
    txn_deadline_ms: float = field(default=6_000.0, metadata=POSITIVE)
    #: Load-balancer circuit breakers: consecutive failures to open, and how
    #: long an open breaker rejects before half-opening a probe.
    breaker_failure_threshold: int = field(default=2, metadata=POSITIVE)
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
        # ``POSITIVE``: a zero period re-arms at the same instant forever; a
        # zero timeout or budget expires every transaction on arrival.
        check_fields(self)
        if self.heartbeat_interval_ms > 0 and not (
                self.coordinator_timeout_ms > self.heartbeat_interval_ms):
            raise ValueError(
                "coordinator_timeout_ms must exceed heartbeat_interval_ms, "
                "or every standby suspects a healthy coordinator")
