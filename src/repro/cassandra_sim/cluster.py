"""Cluster assembly and membership orchestration for the simulated deployment.

A cluster is built either the historical way (``replica_regions``: one node
per region, names derived as ``cassandra-{i}-{region}``) or from an explicit
``nodes`` list of ``(name, region)`` pairs — which is what
:class:`repro.core.cluster_spec.ClusterSpec` produces for larger rings.

Live membership changes run through :class:`~repro.cassandra_sim.rebalance.
RingRebalance`: :meth:`CassandraCluster.join_node`,
:meth:`~CassandraCluster.decommission_node` and
:meth:`~CassandraCluster.remove_node` orchestrate bootstrap → stream →
announce → serve on the simulation scheduler, optionally deferred to a
future instant (``at_ms``) so an experiment can trigger a rebalance in the
middle of a load run.  Forced removal pairs with the fault machinery: crash
a replica with :class:`~repro.faults.injector.FaultInjector`, then
``remove_node`` re-replicates its ranges from the survivors.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cassandra_sim.client import CassandraClient
from repro.cassandra_sim.config import CassandraConfig
from repro.cassandra_sim.partitioner import RingPartitioner, key_tokens
from repro.cassandra_sim.rebalance import RingRebalance
from repro.cassandra_sim.replica import CassandraReplica
from repro.cassandra_sim.storage import KeySpace, PRELOAD_STAMP, TIME_ZERO
from repro.cassandra_sim.versions import VersionedValue
from repro.sim.environment import SimEnvironment
from repro.sim.topology import Region, replica_regions_default
from repro.workloads.records import TimeZeroItems, time_zero_value


class CassandraCluster:
    """A replicated Cassandra deployment inside one simulation environment."""

    def __init__(self, env: SimEnvironment,
                 config: Optional[CassandraConfig] = None,
                 replica_regions: Optional[Sequence[str]] = None,
                 nodes: Optional[Sequence[Tuple[str, str]]] = None) -> None:
        self.env = env
        self.config = config if config is not None else CassandraConfig()
        if nodes is not None:
            if replica_regions is not None:
                raise ValueError("pass either nodes or replica_regions, not both")
            members = [(str(name), str(region)) for name, region in nodes]
            if len(members) < self.config.replication_factor:
                raise ValueError(
                    "need at least as many nodes as the replication factor")
        else:
            regions = list(replica_regions if replica_regions is not None
                           else replica_regions_default())
            if len(regions) < self.config.replication_factor:
                raise ValueError(
                    "need at least as many replica regions as the replication factor")
            members = [(f"cassandra-{i}-{region}", region)
                       for i, region in enumerate(regions)]
        names = [name for name, _ in members]
        self.partitioner = RingPartitioner(
            names, self.config.replication_factor,
            vnodes_per_node=self.config.vnodes_per_node)
        #: The keys every replica's table is indexed by (host-side
        #: bookkeeping: see :mod:`repro.cassandra_sim.storage`).
        self.keyspace = KeySpace()
        self.replicas: List[CassandraReplica] = [
            CassandraReplica(name, region, env.network, self.config,
                             self.partitioner, self.keyspace)
            for name, region in members
        ]
        #: Replicas that left the ring (kept registered so stragglers get
        #: ``stale_epoch`` rejections instead of silent drops).
        self.retired_replicas: List[CassandraReplica] = []
        self._by_name: Dict[str, CassandraReplica] = {
            replica.name: replica for replica in self.replicas}
        self._by_region: Dict[str, CassandraReplica] = {}
        for replica in self.replicas:
            self._by_region.setdefault(replica.region, replica)
        self._clients: List[CassandraClient] = []
        #: Completed and in-flight :class:`RingRebalance` operations, in
        #: start order.
        self.rebalances: List[RingRebalance] = []

    # -- lookup -----------------------------------------------------------------
    def replica_in(self, region: str) -> CassandraReplica:
        """The (first) serving replica deployed in ``region``."""
        try:
            return self._by_region[region]
        except KeyError:
            raise KeyError(f"no replica deployed in region {region}") from None

    def replica_by_name(self, name: str) -> CassandraReplica:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no replica named {name}") from None

    def replica_names(self) -> List[str]:
        return [replica.name for replica in self.replicas]

    # -- clients -----------------------------------------------------------------
    def add_client(self, name: str, region: str = Region.IRL,
                   contact_region: str = Region.FRK,
                   fallbacks: bool = False) -> CassandraClient:
        """Create a client in ``region`` connected to the replica in ``contact_region``.

        ``fallbacks=True`` hands the client the remaining replicas as backup
        coordinators so a client-side timeout — or a retryable rejection from
        a coordinator that left the ring — can fail over (used by the fault
        and rebalance experiments).
        """
        contact = self.replica_in(contact_region)
        fallback_contacts = None
        if fallbacks:
            fallback_contacts = [r.name for r in self.replicas
                                 if r.name != contact.name]
        client = CassandraClient(name, region, self.env.network,
                                 contact.name, self.config,
                                 fallback_contacts=fallback_contacts)
        self._clients.append(client)
        return client

    @property
    def clients(self) -> List[CassandraClient]:
        return list(self._clients)

    # -- membership changes ------------------------------------------------------
    def join_node(self, name: str, region: str,
                  vnodes: Optional[int] = None,
                  at_ms: Optional[float] = None,
                  on_complete=None) -> RingRebalance:
        """Add a node to the ring: bootstrap → stream → announce → serve.

        Starts immediately, or at absolute simulated time ``at_ms``.  The
        returned operation exposes ``started_at`` / ``completed_at`` once the
        respective phase has run.
        """
        return self._launch(RingRebalance(self, "join", name, region=region,
                                          vnodes=vnodes,
                                          on_complete=on_complete), at_ms)

    def decommission_node(self, name: str, at_ms: Optional[float] = None,
                          on_complete=None) -> RingRebalance:
        """Gracefully remove a node: it streams its ranges out, then retires."""
        return self._launch(RingRebalance(self, "decommission", name,
                                          on_complete=on_complete), at_ms)

    def remove_node(self, name: str, at_ms: Optional[float] = None,
                    on_complete=None) -> RingRebalance:
        """Forcibly remove a (typically crashed) node; survivors re-replicate."""
        return self._launch(RingRebalance(self, "remove", name,
                                          on_complete=on_complete), at_ms)

    def _launch(self, operation: RingRebalance,
                at_ms: Optional[float]) -> RingRebalance:
        self.rebalances.append(operation)
        if at_ms is None:
            operation.start()
        else:
            self.env.scheduler.schedule_call_at(at_ms, operation.start)
        return operation

    def _add_replica(self, name: str, region: str,
                     ring_state: str = "serving") -> CassandraReplica:
        if name in self._by_name:
            raise ValueError(f"replica {name!r} already exists")
        replica = CassandraReplica(name, region, self.env.network, self.config,
                                   self.partitioner, self.keyspace)
        replica.ring_state = ring_state
        self.replicas.append(replica)
        self._by_name[name] = replica
        if ring_state == "serving":
            self._by_region.setdefault(region, replica)
        return replica

    def _on_membership_committed(self, operation: RingRebalance) -> None:
        """Update the serving indexes after a rebalance announces."""
        replica = self.replica_by_name(operation.node_name)
        if operation.kind == "join":
            self._by_region.setdefault(replica.region, replica)
            return
        # Departure: drop from the serving set, keep on the network retired
        # (and resolvable by name, so stragglers and tests can reach it).
        self.replicas.remove(replica)
        self.retired_replicas.append(replica)
        if self._by_region.get(replica.region) is replica:
            del self._by_region[replica.region]
            for candidate in self.replicas:
                if candidate.region == replica.region:
                    self._by_region[replica.region] = candidate
                    break

    # -- data loading ----------------------------------------------------------------
    def preload(self, items: Mapping[str, object]) -> None:
        """Install initial data on every replica owning the key (time zero state).

        ``items`` is any mapping (a dict, a dataset's
        :class:`~repro.workloads.records.TimeZeroItems`), read in bulk.
        Every key is hashed once here and the rows are sorted by token
        once, so keys new to the key space get their ids in token order
        (which lets a stream task bisect the token column, and makes a
        first preload the key space's base run: no key → id dict).  If all
        are new, the key space keeps a dict's values (a dataset's it
        derives from the keys) and every owner's row holds ``TIME_ZERO``;
        otherwise each key gets its own version, which an owner holding the
        key ignores (an equal stamp is not newer).  The sorted columns are
        cut at the ring's slot boundaries and each run is merged into its
        owners whole.
        """
        keys = list(items)
        tokens = key_tokens(keys)
        order = array("I", sorted(range(len(keys)), key=tokens.__getitem__))
        tokens = array("Q", map(tokens.__getitem__, order))
        keys = list(map(keys.__getitem__, order))
        size = items.value_size if isinstance(items, TimeZeroItems) else 0
        values = () if size else list(map(list(items.values()).__getitem__,
                                          order))
        del order  # freed before the tables fill
        space = self.keyspace
        if not len(space) or space.isdisjoint(keys):
            ids = space.extend(keys, tokens, values, size)
            versions = None  # TIME_ZERO a run at a time: no row-long list
        else:
            ids = space.intern(keys, tokens)
            if size:
                values = map(time_zero_value, keys, repeat(size))
            versions = [VersionedValue(value, PRELOAD_STAMP) for value in values]
        by_name = self._by_name
        for low, high, owners in self.partitioner.owner_runs(tokens):
            run = ids[low:high], ([TIME_ZERO] * (high - low) if versions is None
                                  else versions[low:high])
            for owner in owners:
                replica = by_name.get(owner)
                if replica is not None:
                    replica.table.merge(*run)

    # -- statistics -------------------------------------------------------------------
    def total_preliminaries_flushed(self) -> int:
        return sum(r.preliminaries_flushed
                   for r in self.replicas + self.retired_replicas)

    def total_confirmations_sent(self) -> int:
        return sum(r.confirmations_sent
                   for r in self.replicas + self.retired_replicas)

    def in_flight(self) -> Dict[str, int]:
        """What this cluster's clients still have out: read and write
        records acquired and not yet retired, and the operations among them
        (see :meth:`CassandraClient.outstanding`).  All zero once a run has
        drained; an operation that can never complete — no timeout armed,
        coordinator crashed — stays counted."""
        reads, writes, pending = map(
            sum, zip(*(client.outstanding() for client in self._clients)))
        return {"read_sessions": reads, "write_sessions": writes,
                "client_pending": pending}

    def total_keys_streamed(self) -> int:
        return sum(r.keys_streamed_in
                   for r in self.replicas + self.retired_replicas)

    def total_stale_rejections(self) -> int:
        return sum(r.stale_rejections
                   for r in self.replicas + self.retired_replicas)

    def total_stale_epoch_retries(self) -> int:
        return sum(r.stale_epoch_retries
                   for r in self.replicas + self.retired_replicas)

    def total_writes_forwarded(self) -> int:
        return sum(r.writes_forwarded
                   for r in self.replicas + self.retired_replicas)
