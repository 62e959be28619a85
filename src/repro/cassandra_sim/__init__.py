"""A quorum-replicated key-value store modelled after Cassandra.

This package is the substitute for the Apache Cassandra v2.1.10 deployment
the paper modified and evaluated on EC2.  It reproduces the mechanics the
evaluation depends on:

* tunable per-operation consistency via read/write quorum sizes (R, W);
* last-write-wins conflict resolution on timestamps;
* coordinators that forward to replicas and gather quorums, with
  asynchronous (eventual) replication of writes beyond W;
* the paper's *Correctable Cassandra* (CC) extension — the coordinator
  flushes a preliminary response after its first (local) read, then the
  final quorum response — and the ``*CC`` confirmation optimization that
  replaces an identical final response with a small confirmation message.
"""
