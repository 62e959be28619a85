"""The simulated ZooKeeper ensemble's cost model and its configuration.

Service times are small because ZooKeeper operations are cheap; the latency
the paper measures is dominated by the WAN round trips of the Zab commit
path.  The service times and wire sizes below are fixed model constants;
:class:`ZooKeeperConfig` holds what an ensemble is built with and may
vary: failure detection, the election timings and client failover.  It is
fixed once built: servers and clients fold it into derived values.
"""

from __future__ import annotations

from repro.workloads.records import check_fields, spec

#: CPU time a server spends handling one client request (ms).
REQUEST_SERVICE_MS = 0.4
#: CPU time the leader spends per proposal (ms).
PROPOSAL_SERVICE_MS = 0.3
#: CPU time a follower spends acking / applying a proposal (ms).
APPLY_SERVICE_MS = 0.3
#: Extra CPU time for the CZK local simulation fast path (ms).
SIMULATION_SERVICE_MS = 0.2
#: Size of a queue element payload on the wire (bytes); the paper uses
#: identifiers of up to 20 B (e.g. ticket numbers).
ELEMENT_SIZE_BYTES = 20
#: Size of one znode name in a getChildren response (bytes),
#: e.g. ``"item-0000000042"``.
CHILD_NAME_BYTES = 16
#: Size of a znode path on the wire (bytes).
PATH_SIZE_BYTES = 24
#: Small response / acknowledgement body size (bytes).
ACK_BYTES = 10


@spec(frozen=True)
class ZooKeeperConfig:
    """Ensemble-wide configuration (the cost model is the module's
    constants)."""

    #: Follower → leader heartbeat period (ms); 0 disables failure detection
    #: entirely, which is the fault-free behaviour the happy-path figures
    #: assume.
    heartbeat_interval_ms: float = 0.0
    #: A follower that has not heard a heartbeat reply for this long suspects
    #: the leader and starts an election.
    leader_timeout_ms: float = 800.0
    #: How long an elector waits to collect candidacies before tallying.
    election_window_ms: float = 300.0
    #: Client-side timeout for one request (ms); 0 disables.  On expiry the
    #: client re-issues the request, at once, to the next server of the
    #: ensemble.
    request_timeout_ms: float = 0.0
    #: How many times the client re-issues a timed-out request.
    client_retries: int = 3

    def __post_init__(self) -> None:
        check_fields(self)
        if self.heartbeat_interval_ms > 0:
            if not self.leader_timeout_ms > self.heartbeat_interval_ms:
                raise ValueError(
                    "leader_timeout_ms must exceed heartbeat_interval_ms, or "
                    "every follower suspects a healthy leader on every tick")
            if not self.election_window_ms > 0:
                raise ValueError("election_window_ms must be positive")

    def client_patience_ms(self) -> float:
        """The longest a client can wait for one request: every attempt
        times out (0 with client timeouts off — it waits forever)."""
        if self.request_timeout_ms <= 0:
            return 0.0
        return (self.client_retries + 1) * self.request_timeout_ms

    @classmethod
    def fault_tolerant(cls, **overrides) -> "ZooKeeperConfig":
        """A configuration with failure detection and client failover enabled."""
        defaults = dict(
            heartbeat_interval_ms=200.0,
            request_timeout_ms=2_000.0,
        )
        defaults.update(overrides)
        return cls(**defaults)
