"""Configuration knobs for the simulated Cassandra cluster."""

from __future__ import annotations

from dataclasses import field

from repro.workloads.records import POSITIVE, check_fields, spec


@spec
class CassandraConfig:
    """Cluster-wide configuration.

    Service times model the CPU cost of handling a request at a replica; the
    coordinator pays ``preliminary_flush_ms`` extra for every ICG read, which
    is what produces Correctable Cassandra's throughput drop in Figure 6.
    """

    #: Number of replicas holding each key.
    replication_factor: int = field(default=3, metadata=POSITIVE)
    #: Virtual nodes (tokens) each storage node places on the ring.  More
    #: vnodes smooth per-node load and shrink the ranges a membership change
    #: moves.  Determinism contract: the token layout is a pure function of
    #: the node names and this count (``md5(f"{name}#{vnode}")``), so a given
    #: membership always yields the same ring regardless of seeds or history.
    vnodes_per_node: int = field(default=8, metadata=POSITIVE)
    #: CPU time a replica spends serving one read (ms).
    read_service_ms: float = 1.5
    #: CPU time a replica spends applying one write (ms).
    write_service_ms: float = 1.0
    #: Extra coordinator CPU time for flushing a preliminary response (ms).
    preliminary_flush_ms: float = 0.6
    #: Size of a full record returned by a read (bytes).  The single-request
    #: microbenchmark uses 100 B objects; the YCSB load/bandwidth experiments
    #: use the YCSB default of 10 fields × 100 B = 1000 B records.
    value_size_bytes: int = field(default=100, metadata=POSITIVE)
    #: Size of a key on the wire (bytes).
    key_size_bytes: int = 20
    #: Per-response metadata overhead (bytes).
    response_overhead_bytes: int = 40
    #: Size of a confirmation message body (bytes), for the *CC optimization.
    confirmation_bytes: int = 10
    #: Whether final views identical to the preliminary are replaced by a
    #: small confirmation message (the ``*CC`` optimization of Section 5.2).
    confirmation_optimization: bool = False
    #: Whether quorum reads repair stale replicas afterwards.
    read_repair: bool = False
    #: Coordinator-side timeout for assembling a read quorum (ms); 0 disables
    #: timeouts entirely, which is the fault-free behaviour the paper's
    #: happy-path figures assume.
    read_timeout_ms: float = 0.0
    #: Coordinator-side timeout for assembling a write quorum (ms); 0 disables.
    write_timeout_ms: float = 0.0
    #: How many times the coordinator re-solicits missing replicas before
    #: giving up on the requested quorum.
    coordinator_retries: int = 1
    #: After the retries are exhausted, whether to answer the client with the
    #: responses gathered so far (a *downgraded* quorum) instead of an error.
    downgrade_on_timeout: bool = True
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
    #: Service time the stream source pays to assemble one batch (ms).
    stream_batch_ms: float = 0.5
    #: Service time the stream target pays to apply one streamed item (ms).
    stream_apply_ms_per_item: float = 0.05

    def __post_init__(self) -> None:
        check_fields(self)

    def quorum(self) -> int:
        """Majority quorum size for this replication factor."""
        return self.replication_factor // 2 + 1

    @classmethod
    def fault_tolerant(cls, **overrides) -> "CassandraConfig":
        """A configuration with the recovery paths enabled.

        Used by the fault experiments: coordinator timeouts with one retry
        then downgrade, client-side failover, and read repair so replicas
        reconverge after a crash or partition heals.
        """
        defaults = dict(
            read_repair=True,
            read_timeout_ms=250.0,
            write_timeout_ms=250.0,
            coordinator_retries=1,
            downgrade_on_timeout=True,
            client_timeout_ms=1_000.0,
            client_retries=2,
        )
        defaults.update(overrides)
        return cls(**defaults)
