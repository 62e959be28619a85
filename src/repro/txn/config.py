"""The transaction layer's cost model constants and its configuration.

The redelivery and probe periods, the load balancer's breaker settings
and a write's value size are fixed model constants (a write's key size is
:data:`repro.sim.network.KEY_SIZE_BYTES`, shared with Cassandra).
:class:`TxnConfig` holds what a fabric is built with and may vary: the
service times, timeouts and deadline, failure detection and client
retries.  It is fixed once built.
"""

from __future__ import annotations

from dataclasses import field

from repro.workloads.records import POSITIVE, check_fields, spec

#: Redelivery period for commit/abort decisions not yet acked by every
#: participant (ms); covers participants that were crashed or partitioned
#: away when the decision first went out.
DECISION_RETRY_MS = 300.0
#: Re-probe period for participants that have not answered a takeover
#: state request (ms); recovery blocks on every participant, so probes
#: continue until crashed participants come back.
TAKEOVER_PROBE_MS = 250.0
#: Load-balancer circuit breakers: consecutive failures to open, and how
#: long an open breaker rejects before half-opening a probe.
BREAKER_FAILURE_THRESHOLD = 2
BREAKER_RESET_MS = 800.0
#: A write's value size on the wire (bytes).
VALUE_SIZE_BYTES = 100


@spec(frozen=True)
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
    #: Active-coordinator heartbeat period (ms); 0 disables failure detection
    #: (and with it coordinator failover).
    heartbeat_interval_ms: float = 100.0
    #: A standby that has heard no active-coordinator heartbeat for this long
    #: suspects a crash.  Standbys stagger by rank so exactly one survivor
    #: takes over: standby ``r`` fires after ``(1 + r)`` multiples of this.
    coordinator_timeout_ms: float = 450.0
    #: Client-side timeout for one transaction attempt (ms); 0 disables.
    client_timeout_ms: float = 1_200.0
    #: How many times the client re-submits a timed-out transaction (after
    #: the manager's capped exponential backoff).
    client_retries: int = 3
    #: End-to-end transaction budget (ms): the absolute deadline carried in
    #: every message of the transaction (client → coordinator → participant),
    #: after which any hop refuses further work on it.
    txn_deadline_ms: float = field(default=6_000.0, metadata=POSITIVE)
    #: CPU time a participant spends validating + logging one prepare (ms).
    prepare_service_ms: float = 0.4
    #: CPU time a participant spends applying one commit (ms).
    commit_service_ms: float = 0.5
    #: CPU time the coordinator spends per protocol step (ms).
    coordinator_service_ms: float = 0.3

    def __post_init__(self) -> None:
        # ``POSITIVE``: a zero timeout or budget expires every transaction
        # on arrival.
        check_fields(self)
        if self.heartbeat_interval_ms > 0 and not (
                self.coordinator_timeout_ms > self.heartbeat_interval_ms):
            raise ValueError(
                "coordinator_timeout_ms must exceed heartbeat_interval_ms, "
                "or every standby suspects a healthy coordinator")
