"""Declarative cluster construction: one spec for every experiment stack.

:class:`ClusterSpec` is a frozen description of a Cassandra deployment —
node count, region placement, replication factor, virtual-node count,
dataset shape, clients, and the workload seed — and
:meth:`ClusterSpec.build` turns it into a wired :class:`BuiltCluster`.
A default spec builds the paper's 3-node FRK/IRL/VRG deployment, with node
names ``cassandra-{i}-{region}`` and the construction order environment →
config → cluster → dataset → preload → clients.

Determinism contract: everything a spec builds is a pure function of its
fields.  In particular the token ring layout depends only on the node names
and ``vnodes_per_node`` (see :mod:`repro.cassandra_sim.partitioner`), and
all randomness is derived from ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Tuple

from repro.cassandra_sim.client import CassandraClient
from repro.cassandra_sim.cluster import CassandraCluster
from repro.cassandra_sim.config import CassandraConfig
from repro.sim.environment import SimEnvironment
from repro.sim.topology import Region, round_robin_regions
from repro.workloads.records import POSITIVE, Dataset, check_fields, spec

#: Client region -> contact (coordinator) region used by the load
#: experiments: every client connects to a *remote* replica, as in the
#: paper.
REMOTE_CONTACTS: Dict[str, str] = {
    Region.IRL: Region.FRK,
    Region.FRK: Region.VRG,
    Region.VRG: Region.IRL,
}


@dataclass
class BuiltCluster:
    """A wired-up deployment: environment, cluster, dataset, and clients;
    the object every harness drives."""

    env: SimEnvironment
    cluster: CassandraCluster
    dataset: Dataset
    clients: Dict[str, CassandraClient] = field(default_factory=dict)

    def client_in(self, region: str) -> CassandraClient:
        return self.clients[region]


@spec(frozen=True)
class ClusterSpec:
    """Declarative description of a simulated Cassandra deployment.

    Defaults reproduce the paper's setup: three nodes, one per region in
    ``(FRK, IRL, VRG)``, replication factor 3, 8 vnodes per node, one
    client in Ireland contacting Frankfurt.
    """

    #: Number of storage nodes in the ring.
    nodes: int = field(default=3, metadata=POSITIVE)
    #: Region cycle for node placement.  ``None`` uses the paper's
    #: ``(FRK, IRL, VRG)``.  With fewer entries than ``nodes`` the cycle
    #: repeats round-robin, so ``nodes=6`` puts two nodes in each region.
    regions: Optional[Tuple[str, ...]] = None
    #: Replicas per key.  ``None`` keeps the config's value (default 3).
    replication_factor: Optional[int] = field(default=None, metadata=POSITIVE)
    #: Virtual nodes per storage node.  ``None`` keeps the config's value
    #: (default 8).  The token layout is a pure function of node names and
    #: this count.
    vnodes_per_node: Optional[int] = field(default=None, metadata=POSITIVE)
    #: Base cluster configuration; ``None`` builds a default
    #: :class:`CassandraConfig` with ``value_size_bytes``.
    config: Optional[CassandraConfig] = None
    #: Workload seed: drives the environment (topology jitter) and, via the
    #: harnesses' label-derived streams, every generator built on top.
    seed: int = 0
    #: Dataset shape preloaded onto the ring.
    record_count: int = field(default=1000, metadata=POSITIVE)
    value_size_bytes: int = field(default=100, metadata=POSITIVE)
    key_prefix: str = "user"
    #: One client per region listed here (named ``ycsb-client-{region}``).
    client_regions: Tuple[str, ...] = (Region.IRL,)
    #: Client region -> coordinator region; ``None`` uses
    #: :data:`REMOTE_CONTACTS` (clients contact a remote replica).
    contacts: Optional[Mapping[str, str]] = None
    #: Hand every client the remaining replicas as backup coordinators.
    client_fallbacks: bool = False
    #: Whether to install the dataset on the ring before the run.
    preload: bool = True

    def __post_init__(self) -> None:
        check_fields(self)
        if self.regions is not None and not self.regions:
            raise ValueError("regions must be None or non-empty")
        if self.replication_factor is not None \
                and self.replication_factor > self.nodes:
            raise ValueError(
                f"replication factor {self.replication_factor} exceeds "
                f"cluster size {self.nodes}")

    # -- derived layout -------------------------------------------------------
    def node_regions(self) -> Tuple[str, ...]:
        """Region of every node, round-robin over the region cycle."""
        return round_robin_regions(self.nodes, self.regions)

    def members(self) -> Tuple[Tuple[str, str], ...]:
        """``(name, region)`` for every node: ``cassandra-{i}-{region}``."""
        return tuple((f"cassandra-{i}-{region}", region)
                     for i, region in enumerate(self.node_regions()))

    def effective_config(self) -> CassandraConfig:
        """The cluster config with the spec's RF/vnode overrides applied.

        When no override differs, the caller's config object is returned
        unchanged (identity preserved), so legacy call sites keep the exact
        object they passed in.
        """
        config = self.config
        if config is None:
            config = CassandraConfig(value_size_bytes=self.value_size_bytes)
            if self.replication_factor is not None:
                config = replace(config,
                                 replication_factor=self.replication_factor)
            if self.vnodes_per_node is not None:
                config = replace(config, vnodes_per_node=self.vnodes_per_node)
            return config
        overrides = {}
        if self.replication_factor is not None \
                and self.replication_factor != config.replication_factor:
            overrides["replication_factor"] = self.replication_factor
        if self.vnodes_per_node is not None \
                and self.vnodes_per_node != config.vnodes_per_node:
            overrides["vnodes_per_node"] = self.vnodes_per_node
        return replace(config, **overrides) if overrides else config

    # -- construction ---------------------------------------------------------
    def build(self) -> BuiltCluster:
        """Wire up the deployment: env → config → cluster → dataset → clients.

        The construction order is load-bearing: it fixes the sequence of RNG
        derivations and node registrations, which the committed figure
        tables (and the golden event-trace hashes) depend on.
        """
        env = SimEnvironment(seed=self.seed)
        config = self.effective_config()
        cluster = CassandraCluster(env, config, nodes=self.members())
        dataset = Dataset(record_count=self.record_count,
                          value_size_bytes=self.value_size_bytes,
                          key_prefix=self.key_prefix, seed=self.seed)
        if self.preload:
            cluster.preload(dataset.initial_items())
        contacts = self.contacts if self.contacts is not None \
            else REMOTE_CONTACTS
        built = BuiltCluster(env=env, cluster=cluster, dataset=dataset)
        for region in self.client_regions:
            contact_region = contacts.get(region, Region.FRK)
            client = cluster.add_client(
                f"ycsb-client-{region}", region=region,
                contact_region=contact_region,
                fallbacks=self.client_fallbacks)
            built.clients[region] = client
        return built
