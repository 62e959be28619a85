"""The simulated Cassandra cluster's cost model and its configuration.

The model constants below are fixed: per-hop service times and wire sizes
(a key's wire size is :data:`repro.sim.network.KEY_SIZE_BYTES`, shared
with 2PC).  :class:`CassandraConfig` holds what a cluster is built with
and may vary: replication, record size, the ``*CC`` optimization, read
repair, the recovery timeouts and the streaming batch and scan cost.  It
is fixed once built: replicas and clients fold it into derived values.
"""

from __future__ import annotations

from dataclasses import field

from repro.workloads.records import POSITIVE, check_fields, spec

#: CPU time a replica spends serving one read (ms).
READ_SERVICE_MS = 1.5
#: CPU time a replica spends applying one write (ms).
WRITE_SERVICE_MS = 1.0
#: Extra coordinator CPU time for flushing a preliminary response (ms): the
#: coordinator pays it for every ICG read, which is what produces Correctable
#: Cassandra's throughput drop in Figure 6.
PRELIMINARY_FLUSH_MS = 0.6
#: Per-response metadata overhead (bytes).
RESPONSE_OVERHEAD_BYTES = 40
#: Size of a confirmation message body (bytes), for the *CC optimization.
CONFIRMATION_BYTES = 10
#: Service time the stream source pays to assemble one batch (ms).
STREAM_BATCH_MS = 0.5
#: Service time the stream target pays to apply one streamed item (ms).
STREAM_APPLY_MS_PER_ITEM = 0.05


@spec(frozen=True)
class CassandraConfig:
    """Cluster-wide configuration (the cost model is the module's
    constants)."""

    #: Number of replicas holding each key.
    replication_factor: int = field(default=3, metadata=POSITIVE)
    #: Virtual nodes (tokens) each storage node places on the ring.  More
    #: vnodes smooth per-node load and shrink the ranges a membership change
    #: moves.  Determinism contract: the token layout is a pure function of
    #: the node names and this count (``md5(f"{name}#{vnode}")``), so a given
    #: membership always yields the same ring regardless of seeds or history.
    vnodes_per_node: int = field(default=8, metadata=POSITIVE)
    #: Size of a full record returned by a read (bytes).  The single-request
    #: microbenchmark uses 100 B objects; the YCSB load/bandwidth experiments
    #: use the YCSB default of 10 fields × 100 B = 1000 B records.
    value_size_bytes: int = field(default=100, metadata=POSITIVE)
    #: Whether final views identical to the preliminary are replaced by a
    #: small confirmation message (the ``*CC`` optimization of Section 5.2).
    confirmation_optimization: bool = False
    #: Whether quorum reads repair stale replicas afterwards.
    read_repair: bool = False
    #: Coordinator-side timeout for assembling a read quorum (ms); 0 disables
    #: timeouts entirely, which is the fault-free behaviour the paper's
    #: happy-path figures assume.  A quorum wait that times out re-solicits
    #: the replicas that have not answered, once; the next timeout answers
    #: with what it gathered (a *downgraded* quorum), or with an error if it
    #: gathered nothing.
    read_timeout_ms: float = 0.0
    #: Coordinator-side timeout for assembling a write quorum (ms); 0 disables.
    write_timeout_ms: float = 0.0
    #: Client-side timeout for one request (ms); 0 disables.  On expiry the
    #: client re-issues the request, at once, to the next contact in its
    #: rotation (if it has any) and eventually reports an error.
    client_timeout_ms: float = 0.0
    #: How many times the client re-issues a timed-out request.
    client_retries: int = 2
    #: Range streaming (ring rebalancing): items shipped per stream batch.
    #: Batches are stop-and-wait (next batch leaves when the previous one is
    #: acknowledged), so smaller batches stretch a rebalance over more time.
    stream_batch_items: int = field(default=64, metadata=POSITIVE)
    #: Simulated service time the stream source is charged for locating one
    #: task's key range before its first batch leaves (ms).  A model
    #: parameter, not a description of host work: the simulator itself
    #: selects the range from the table's token index (see
    #: ``storage.rows_in_range``).
    stream_scan_ms: float = 2.0

    def __post_init__(self) -> None:
        check_fields(self)

    def quorum(self) -> int:
        """Majority quorum size for this replication factor."""
        return self.replication_factor // 2 + 1

    @classmethod
    def fault_tolerant(cls, **overrides) -> "CassandraConfig":
        """A configuration with the recovery paths enabled.

        Used by the fault experiments: coordinator timeouts (one retry, then
        downgrade), client-side failover, and read repair so replicas
        reconverge after a crash or partition heals.
        """
        defaults = dict(
            read_repair=True,
            read_timeout_ms=250.0,
            write_timeout_ms=250.0,
            client_timeout_ms=1_000.0,
        )
        defaults.update(overrides)
        return cls(**defaults)
