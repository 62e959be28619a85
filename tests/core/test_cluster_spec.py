"""Tests for the unified ClusterSpec construction API."""

import math

import pytest

from repro.cassandra_sim.config import CassandraConfig
from repro.core.cluster_spec import REMOTE_CONTACTS, ClusterSpec
from repro.sim.topology import Region


class TestSpecLayout:
    def test_default_spec_reproduces_paper_deployment(self):
        built = ClusterSpec().build()
        assert [r.name for r in built.cluster.replicas] == [
            "cassandra-0-" + Region.FRK,
            "cassandra-1-" + Region.IRL,
            "cassandra-2-" + Region.VRG,
        ]
        assert built.cluster.partitioner.replication_factor == 3
        assert built.cluster.partitioner.vnodes_per_node == 8

    def test_members_round_robin(self):
        spec = ClusterSpec(nodes=6)
        regions = [region for _, region in spec.members()]
        assert regions == [Region.FRK, Region.IRL, Region.VRG] * 2
        names = [name for name, _ in spec.members()]
        assert names[3] == "cassandra-3-" + Region.FRK

    def test_explicit_region_cycle(self):
        spec = ClusterSpec(nodes=4, regions=(Region.VRG, Region.NCA),
                           replication_factor=2)
        assert spec.node_regions() == (Region.VRG, Region.NCA,
                                       Region.VRG, Region.NCA)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(nodes=0)
        with pytest.raises(ValueError):
            ClusterSpec(nodes=2, replication_factor=3)
        with pytest.raises(ValueError):
            ClusterSpec(vnodes_per_node=0)
        with pytest.raises(ValueError):
            ClusterSpec(regions=())

    @pytest.mark.parametrize("field, value", [
        ("record_count", 0), ("record_count", -3),
        ("value_size_bytes", 0), ("value_size_bytes", -1),
    ] + [(field, value) for field in ("nodes", "record_count",
                                      "value_size_bytes")
         for value in (math.nan, 2.5, math.inf)] + [
        (field, True) for field in ("nodes", "record_count",
                                    "value_size_bytes", "replication_factor")])
    def test_dataset_shape_rejected_at_construction(self, field, value):
        """Not at the first update of a run built without a preload, nor
        as a ``TypeError`` at ``build()`` (a node count or a dataset size
        that is not an int), nor as the int 1 (``True``)."""
        with pytest.raises(ValueError):
            ClusterSpec(preload=False, **{field: value})


class TestEffectiveConfig:
    def test_caller_config_identity_preserved_without_overrides(self):
        config = CassandraConfig()
        spec = ClusterSpec(config=config)
        assert spec.effective_config() is config

    def test_equal_override_keeps_identity(self):
        config = CassandraConfig(replication_factor=3)
        spec = ClusterSpec(config=config, replication_factor=3)
        assert spec.effective_config() is config

    def test_overrides_applied(self):
        spec = ClusterSpec(nodes=6, config=CassandraConfig(),
                           replication_factor=2, vnodes_per_node=4)
        config = spec.effective_config()
        assert config.replication_factor == 2
        assert config.vnodes_per_node == 4

    def test_vnodes_flow_to_partitioner(self):
        built = ClusterSpec(nodes=4, vnodes_per_node=3).build()
        partitioner = built.cluster.partitioner
        assert partitioner.vnodes_per_node == 3
        assert len(partitioner.token_layout()) == 4 * 3


class TestBuild:
    def test_clients_and_contacts(self):
        built = ClusterSpec(client_regions=(Region.IRL, Region.FRK)).build()
        assert set(built.clients) == {Region.IRL, Region.FRK}
        irl = built.client_in(Region.IRL)
        assert irl.name == "ycsb-client-" + Region.IRL
        # Remote contacts: the Irish client coordinates through Frankfurt.
        contact = built.cluster.replica_in(REMOTE_CONTACTS[Region.IRL])
        assert irl.contact == contact.name

    def test_preload_covers_owned_keys(self):
        built = ClusterSpec(nodes=6, record_count=50).build()
        cluster = built.cluster
        for key in built.dataset.keys():
            for name in cluster.partitioner.replicas_for(key):
                assert cluster.replica_by_name(name).table.contains(key)

    def test_preload_skips_non_owners(self):
        built = ClusterSpec(nodes=6, record_count=50).build()
        cluster = built.cluster
        total_rows = sum(len(r.table) for r in cluster.replicas)
        assert total_rows == 50 * 3  # exactly RF copies per key

    def test_client_fallbacks(self):
        built = ClusterSpec(client_fallbacks=True).build()
        assert len(built.client_in(Region.IRL)._contacts) == 3

    def test_preload_false(self):
        built = ClusterSpec(preload=False).build()
        assert all(len(r.table) == 0 for r in built.cluster.replicas)

    def test_determinism(self):
        a = ClusterSpec(nodes=5, seed=7, record_count=20)
        b = ClusterSpec(nodes=5, seed=7, record_count=20)
        assert (a.build().cluster.partitioner.token_layout()
                == b.build().cluster.partitioner.token_layout())
