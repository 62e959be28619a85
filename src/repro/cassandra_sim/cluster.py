"""Cluster assembly and membership orchestration for the simulated deployment.

A cluster is built either the historical way (``replica_regions``: one node
per region, names derived as ``cassandra-{i}-{region}``) or from an explicit
``nodes`` list of ``(name, region)`` pairs — which is what
:class:`repro.core.cluster_spec.ClusterSpec` produces for larger rings.

Live membership changes: :meth:`CassandraCluster.join_node`,
:meth:`~CassandraCluster.decommission_node` and
:meth:`~CassandraCluster.remove_node` each start a :class:`RingRebalance`,
now or at a future instant (``at_ms``, so an experiment can trigger a
rebalance in the middle of a load run).  Forced removal pairs with the fault
machinery: crash a replica with :class:`~repro.faults.injector.
FaultInjector`, then ``remove_node`` re-replicates its ranges from the
survivors.  A :class:`RingRebalance` drives one change end to end on the
simulation scheduler while the cluster keeps serving:

1. **bootstrap** — for a join, the new replica node is created (state
   ``bootstrapping``) and registered on the network; the change is planned
   against the current ring and marked *in flight*
   (:meth:`RingPartitioner.begin`), at which point coordinators start
   forwarding writes to every node gaining a range.
2. **stream** — each :class:`StreamTask`'s source replica ships its key
   range to the gainer in stop-and-wait batches, charged to the source's
   processing queue so streaming competes with foreground traffic.
3. **announce** — once every task finishes, the change commits: the ring
   epoch bumps, preference caches invalidate, and in-flight requests routed
   by the old epoch get ``stale_epoch`` rejections that push coordinators to
   the post-rebalance preference list.
4. **serve** — a joining replica flips to ``serving``; a decommissioned or
   removed one flips to ``retired`` (it stays on the network rejecting
   stragglers, which is what drives client/coordinator re-routing).

The whole sequence is deterministic: the plan is a pure function of the
membership edit, streaming order follows the plan, and completion is driven
by simulated message events only.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cassandra_sim.client import CassandraClient
from repro.cassandra_sim.config import CassandraConfig
from repro.cassandra_sim.partitioner import (RingChange, RingPartitioner,
                                             StreamTask, key_tokens)
from repro.cassandra_sim.replica import CassandraReplica
from repro.cassandra_sim.storage import (KeySpace, PRELOAD_STAMP, TIME_ZERO,
                                         VersionedValue)
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

    def _add_replica(self, name: str, region: str) -> CassandraReplica:
        """A joining replica: ``bootstrapping`` until its join announces."""
        if name in self._by_name:
            raise ValueError(f"replica {name!r} already exists")
        replica = CassandraReplica(name, region, self.env.network, self.config,
                                   self.partitioner, self.keyspace)
        replica.ring_state = "bootstrapping"
        self.replicas.append(replica)
        self._by_name[name] = replica
        return replica

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
    def total(self, counter: str) -> int:
        """A replica counter (``"keys_streamed_in"``, ``"stale_rejections"``,
        ...) summed over every replica, retired ones included."""
        return sum(getattr(replica, counter)
                   for replica in self.replicas + self.retired_replicas)

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






class RingRebalance:
    """One join/decommission/removal being executed against a live cluster."""

    def __init__(self, cluster, kind: str, node_name: str,
                 region: Optional[str] = None,
                 vnodes: Optional[int] = None,
                 on_complete: Optional[Callable[["RingRebalance"], None]] = None
                 ) -> None:
        if kind not in ("join", "decommission", "remove"):
            raise ValueError(f"unknown rebalance kind {kind!r}")
        if kind == "join" and region is None:
            raise ValueError("a joining node needs a region")
        self.cluster = cluster
        self.kind = kind
        self.node_name = node_name
        self.region = region
        self.vnodes = vnodes
        self.on_complete = on_complete
        self.change: Optional[RingChange] = None
        self.started_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self._remaining = 0
        #: Stream tasks that could not run (source crashed before streaming).
        self.skipped_tasks: List[StreamTask] = []

    @property
    def done(self) -> bool:
        return self.completed_at is not None

    def duration_ms(self) -> float:
        if self.started_at is None or self.completed_at is None:
            raise RuntimeError("rebalance has not completed")
        return self.completed_at - self.started_at

    # -- phases ---------------------------------------------------------------
    def start(self) -> None:
        """Bootstrap phase: plan the change and kick off streaming."""
        cluster = self.cluster
        partitioner = cluster.partitioner
        self.started_at = cluster.env.scheduler.now()
        if self.kind == "join":
            replica = cluster._add_replica(self.node_name, self.region)
            change = partitioner.plan_join(self.node_name, self.vnodes)
        elif self.kind == "decommission":
            replica = cluster.replica_by_name(self.node_name)
            change = partitioner.plan_decommission(self.node_name)
        else:
            replica = cluster.replica_by_name(self.node_name)
            change = partitioner.plan_remove(self.node_name)
        self.change = change
        self._replica = replica
        partitioner.begin(change)
        self._remaining = len(change.tasks)
        if self._remaining == 0:
            self._announce()
            return
        for task in change.tasks:
            source = cluster.replica_by_name(task.source)
            if not source.alive:
                # A crashed source cannot stream (forced removals racing a
                # second fault); the gainer still catches every new write via
                # forwarding, and read repair backfills the rest.
                self.skipped_tasks.append(task)
                self._task_done(task)
                continue
            source.begin_stream(task, self._task_done)

    def _task_done(self, task: StreamTask) -> None:
        self._remaining -= 1
        if self._remaining == 0:
            self._announce()

    def _announce(self) -> None:
        """Commit the ring change, flip the node's serving state and update
        the cluster's serving indexes."""
        cluster = self.cluster
        cluster.partitioner.commit(self.change)
        replica: CassandraReplica = self._replica
        by_region = cluster._by_region
        if self.kind == "join":
            replica.ring_state = "serving"
            by_region.setdefault(replica.region, replica)
        else:
            replica.ring_state = "retired"
            # Departure: drop from the serving set, keep on the network
            # retired (and resolvable by name, so stragglers and tests can
            # reach it).
            cluster.replicas.remove(replica)
            cluster.retired_replicas.append(replica)
            if by_region.get(replica.region) is replica:
                del by_region[replica.region]
                for candidate in cluster.replicas:
                    if candidate.region == replica.region:
                        by_region[replica.region] = candidate
                        break
        self.completed_at = cluster.env.scheduler.now()
        if self.on_complete is not None:
            self.on_complete(self)
