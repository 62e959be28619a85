"""Token-ordered preload: ``CassandraCluster.preload`` sorts the rows by ring
token once, assigns key ids in that order and hands whole slot runs to their
owners, so the key space's token column is in token order — the invariant
that lets a stream task bisect it — while nothing a replica can be asked
changes."""

from hypothesis import given, settings, strategies as st

from repro.cassandra_sim.cluster import CassandraCluster
from repro.cassandra_sim.config import CassandraConfig
from repro.cassandra_sim.partitioner import key_token
from repro.cassandra_sim.storage import VersionedValue
from repro.sim.environment import SimEnvironment
from repro.sim.topology import Region
from table_reads import stored_token

REGIONS = (Region.FRK, Region.IRL, Region.VRG)


def build(nodes, rf, vnodes):
    config = CassandraConfig(replication_factor=rf, vnodes_per_node=vnodes)
    return CassandraCluster(
        SimEnvironment(seed=3), config,
        nodes=[(f"node{i}", REGIONS[i % 3]) for i in range(nodes)])


def preload_row_by_row(cluster, items):
    """The insertion-order preload this one replaced, as the reference: one
    time-zero write per key and owner, in the mapping's order."""
    for key, value in items.items():
        version = VersionedValue(value, (0.0, "preload", 0))
        token = key_token(key)
        for owner in cluster.partitioner.replicas_for_token(token):
            cluster.replica_by_name(owner).table.apply(key, version, token)


def token_column(table):
    """The tokens of the rows ``table`` holds, in key-id order."""
    return [table._space.tokens[kid]
            for kid in sorted(table.rows_in_range(0, 0))]


RINGS = st.tuples(st.integers(min_value=3, max_value=7),    # nodes
                  st.integers(min_value=1, max_value=3),    # RF
                  st.integers(min_value=1, max_value=8))    # vnodes per node
ITEMS = st.dictionaries(st.text(max_size=8), st.integers(), max_size=120)


class TestTokenOrderedPreload:
    @settings(deadline=None, max_examples=40)
    @given(ring=RINGS, items=ITEMS)
    def test_every_token_column_is_non_decreasing(self, ring, items):
        cluster = build(*ring)
        cluster.preload(items)
        space = cluster.keyspace
        assert list(space.tokens) == sorted(space.tokens)
        # ...and the key space knows it: stream tasks bisect the column
        # itself instead of building an argsort.
        assert space._order is None
        for replica in cluster.replicas:
            tokens = token_column(replica.table)
            assert tokens == sorted(tokens)
            assert tokens == sorted(
                key_token(key) for key in items
                if cluster.partitioner.is_replica(replica.name, key))

    @settings(deadline=None, max_examples=40)
    @given(ring=RINGS, items=ITEMS, again=ITEMS)
    def test_observationally_identical_to_insertion_order(self, ring, items,
                                                          again):
        """Two preloads (the second meets stored rows, so it takes the exact
        LWW path) and a few reads leave every replica answering what the
        row-by-row preload leaves it answering, counters included."""
        cluster, reference = build(*ring), build(*ring)
        for batch in (items, again):
            cluster.preload(batch)
            preload_row_by_row(reference, batch)
        for replica, expected in zip(cluster.replicas, reference.replicas):
            table, wanted = replica.table, expected.table
            assert table.keys() == wanted.keys()
            for key in list(items)[:5] + ["missing"]:
                assert table.get(key) == wanted.get(key)
            for key in table.keys():
                assert table.get(key) == wanted.get(key)
                assert stored_token(table, key) \
                    == stored_token(wanted, key) == key_token(key)
            for counter in ("writes_applied", "writes_ignored"):
                assert getattr(table, counter) == getattr(wanted, counter)

    def test_preload_loses_to_stored_rows_only_when_older(self):
        """Preloading onto written tables: a time-zero row beats a stored
        one only if that was written at time zero by an earlier writer."""
        cluster = build(4, 3, 4)
        cluster.preload({"seed": 0})
        for replica in cluster.replicas:
            replica.table.apply("a", VersionedValue("old", (0.0, "a-node", 4)))
            replica.table.apply("b", VersionedValue("new", (7.5, "node0", 1)))
        cluster.preload({"a": "pre-a", "b": "pre-b", "c": "pre-c"})
        for key, value in (("a", "pre-a"), ("b", "new"), ("c", "pre-c")):
            for name in cluster.partitioner.replicas_for(key):
                assert cluster.replica_by_name(name).table.get(key).value == value
