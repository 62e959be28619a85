"""The replica tables of a cluster against a reference model.

The model is what a table promises, spelt out as plainly as possible: one
dict of ``VersionedValue`` per replica, merged last-write-wins, three
counters beside it, and a sorted-key scan for range queries.  Hypothesis
drives a small ring through what fills its tables — preloads (a second one
meets stored rows), keys created by writes (a ring started without a
preload, like fig15's million-key cells), range streams between any two
replicas in batches that may overlap — and after every step each table must
answer what its model answers: ``read``/``get``/``contains``, ``apply``'s
return value, the counters, ``len``, ``keys``, ``items``, ``rows_in_range``
and ``export_rows``.
"""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.cassandra_sim.cluster import CassandraCluster
from repro.cassandra_sim.config import CassandraConfig
from repro.cassandra_sim.partitioner import key_token, token_in_range
from repro.cassandra_sim.versions import VersionedValue
from repro.sim.environment import SimEnvironment
from repro.sim.topology import Region

REGIONS = (Region.FRK, Region.IRL, Region.VRG)
#: Few keys, so preloads, writes and streams keep meeting the same rows.
KEYS = [f"user{i}" for i in range(14)] + ["", "é"]
PRELOAD = (0.0, "preload", 0)
#: Few distinct components, so equal, older and newer stamps all collide
#: (the preload stamp among them).
STAMPS = st.tuples(st.sampled_from([0.0, 1.0, 2.5]),
                   st.sampled_from(["n1", "n2", "preload"]),
                   st.sampled_from([0, 1, 2**62]))
TOKENS = st.integers(min_value=0, max_value=2**64 - 1)
#: A range bound: anywhere, on a key's token or just past it.
BOUNDS = st.one_of(TOKENS, st.sampled_from(KEYS).map(key_token),
                   st.sampled_from(KEYS).map(lambda k: (key_token(k) + 1)
                                             % 2**64))
ITEMS = st.dictionaries(st.sampled_from(KEYS), st.integers(), max_size=12)


class ModelTable:
    """One replica's table as the plain dict it stands for."""

    def __init__(self):
        self.rows = {}
        self.reads = self.writes_applied = self.writes_ignored = 0

    def apply(self, key, version):
        stored = self.rows.get(key)
        if stored is not None and not version.timestamp > stored.timestamp:
            self.writes_ignored += 1
            return False
        self.rows[key] = version
        self.writes_applied += 1
        return True

    def read(self, key):
        self.reads += 1
        return self.rows.get(key)

    def keys_in_range(self, start, end):
        return [key for key in sorted(self.rows)
                if token_in_range(key_token(key), start, end)]


def exported(table, rows):
    """``export_rows`` as ``(key, version, token)`` triples."""
    return list(zip(*table.export_rows(rows)))


def assert_matches(table, model):
    assert len(table) == len(model.rows)
    assert table.keys() == tuple(sorted(model.rows))
    assert list(table.items()) == sorted(model.rows.items())
    for key in KEYS + ["missing"]:
        assert table.get(key) == model.rows.get(key)
        assert table.contains(key) == (key in model.rows)
    for key in model.rows:
        assert table.token(key) == key_token(key)
    for counter in ("reads", "writes_applied", "writes_ignored"):
        assert getattr(table, counter) == getattr(model, counter), counter
    whole = table.rows_in_range(0, 0)
    assert exported(table, whole) == [
        (key, model.rows[key], key_token(key)) for key in sorted(model.rows)]


def build(nodes, rf, vnodes):
    config = CassandraConfig(replication_factor=rf, vnodes_per_node=vnodes)
    return CassandraCluster(
        SimEnvironment(seed=3), config,
        nodes=[(f"node{i}", REGIONS[i % 3]) for i in range(nodes)])


STEPS = st.one_of(
    st.tuples(st.just("preload"), ITEMS),
    st.tuples(st.just("write"), st.integers(0, 5), st.sampled_from(KEYS),
              st.integers(), STAMPS),
    st.tuples(st.just("read"), st.integers(0, 5), st.sampled_from(KEYS)),
    st.tuples(st.just("stream"), st.integers(0, 5), st.integers(0, 5),
              BOUNDS, st.one_of(BOUNDS, st.just(None)),
              st.lists(st.tuples(st.integers(0, 16), st.integers(0, 16)),
                       max_size=4)),
)


@settings(deadline=None, max_examples=150)
@given(ring=st.tuples(st.integers(3, 6), st.integers(1, 3),
                      st.integers(1, 6)),
       steps=st.lists(STEPS, min_size=1, max_size=14))
def test_tables_match_the_reference_model(ring, steps):
    """Any sequence of preloads, writes, reads and streams — overlapping
    batches, a row streamed onto a replica that holds a newer or an older
    version of it, streams from a table whose rows arrived out of token
    order — leaves every table answering what its dict model answers."""
    cluster = build(*ring)
    replicas = cluster.replicas
    models = {replica.name: ModelTable() for replica in replicas}
    for step in steps:
        kind = step[0]
        if kind == "preload":
            items = step[1]
            cluster.preload(items)
            for key, value in items.items():
                for owner in cluster.partitioner.replicas_for_token(
                        key_token(key)):
                    models[owner].apply(key, VersionedValue(value, PRELOAD))
        elif kind == "write":
            _, which, key, value, stamp = step
            replica = replicas[which % len(replicas)]
            version = VersionedValue(value, stamp)
            assert replica.table.apply(key, version) \
                == models[replica.name].apply(key, version)
        elif kind == "read":
            _, which, key = step
            replica = replicas[which % len(replicas)]
            assert replica.table.read(key) == models[replica.name].read(key)
        else:
            _, source_at, target_at, start, end, cuts = step
            end = start if end is None else end
            source = replicas[source_at % len(replicas)]
            target = replicas[target_at % len(replicas)]
            rows = source.table.rows_in_range(start, end)
            wanted = models[source.name].keys_in_range(start, end)
            assert exported(source.table, rows) == [
                (key, models[source.name].rows[key], key_token(key))
                for key in wanted]
            # Batches cut anywhere, in any order, overlapping or repeated:
            # a stream that restarts re-sends what already arrived.
            for low, high in cuts:
                batch = rows[min(low, high):max(low, high)]
                target.table.apply_rows(*source.table.export_rows(batch))
                for key in wanted[min(low, high):max(low, high)]:
                    models[target.name].apply(
                        key, models[source.name].rows[key])
        for replica in replicas:
            assert_matches(replica.table, models[replica.name])


def test_two_clusters_share_no_key_ids():
    """A key space belongs to one cluster: another cluster in the same
    process numbers its own keys from zero and never sees the first's."""
    first, second = build(4, 3, 4), build(4, 3, 4)
    first.preload({f"a{i}": i for i in range(20)})
    second.preload({f"b{i}": i for i in range(5)})
    second.replicas[0].table.apply("fresh", VersionedValue(1, (1.0, "n", 1)))
    assert first.keyspace is not second.keyspace
    assert sorted(first.keyspace.ids.values()) == list(range(20))
    assert sorted(second.keyspace.ids.values()) == list(range(6))
    assert not first.keyspace.ids.keys() & second.keyspace.ids.keys()
    for replica in first.replicas:
        assert replica.table._space is first.keyspace
        assert not any(map(replica.table.contains, second.keyspace.ids))
    joiner = first._add_replica("joiner", Region.FRK, "bootstrapping")
    assert joiner.table._space is first.keyspace and len(joiner.table) == 0


def test_a_preloaded_key_is_one_version_object_on_all_of_its_owners():
    cluster = build(5, 3, 4)
    items = {f"user{i}": f"value{i}" for i in range(40)}
    cluster.preload(items)
    for key in items:
        owners = cluster.partitioner.replicas_for(key)
        versions = [cluster.replica_by_name(name).table.get(key)
                    for name in owners]
        assert versions[0] == VersionedValue(items[key], PRELOAD)
        assert all(version is versions[0] for version in versions)


def test_a_streamed_row_is_the_sources_version_object():
    env = SimEnvironment(seed=3)
    cluster = CassandraCluster(
        env, CassandraConfig(),
        nodes=[(f"node{i}", REGIONS[i % 3]) for i in range(5)])
    items = {f"user{i}": f"value{i}" for i in range(200)}
    cluster.preload(items)
    join = cluster.join_node("joiner", Region.FRK)
    env.run_until_idle()
    assert join.done
    joiner = cluster.replica_by_name("joiner")
    assert len(joiner.table) > 0
    for key in joiner.table.keys():
        owners = [cluster.replica_by_name(name)
                  for name in cluster.partitioner.replicas_for(key)]
        assert all(owner.table.get(key) is joiner.table.get(key)
                   for owner in owners)


def test_a_key_created_after_a_table_was_built_reads_as_absent_there():
    cluster = build(4, 2, 4)
    joiner = cluster._add_replica("late", Region.IRL, "bootstrapping")
    first = cluster.replicas[0].table
    first.apply("made-later", VersionedValue(1, (1.0, "n", 1)))
    assert joiner.table.read("made-later") is None
    assert joiner.table.apply("made-later", VersionedValue(2, (2.0, "n", 1)))
    assert joiner.table.get("made-later").value == 2
    assert first.get("made-later").value == 1


def test_an_empty_preload_changes_nothing():
    cluster = build(3, 2, 2)
    cluster.preload({})
    assert len(cluster.keyspace) == 0
    assert all(len(replica.table) == 0 for replica in cluster.replicas)


def test_a_second_preload_appends_new_keys_and_tracks_token_order():
    cluster = build(4, 3, 4)
    first = {f"a{i}": i for i in range(30)}
    cluster.preload(first)
    space = cluster.keyspace
    assert space._order is None
    ids = dict(space.ids)
    cluster.preload({**first, **{f"b{i}": i for i in range(30)}})
    assert {key: space.ids[key] for key in first} == ids
    assert sorted(space.ids.values()) == list(range(60))
    # The new keys' tokens interleave with the first preload's.
    assert space._order is not None
    for key in first:
        for owner in cluster.partitioner.replicas_for(key):
            assert cluster.replica_by_name(owner).table.writes_ignored >= 1


@pytest.mark.parametrize("enabled", [True, False])
def test_a_preload_leaves_the_cyclic_collector_as_it_found_it(enabled):
    cluster = build(3, 2, 2)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        cluster.preload({f"k{i}": i for i in range(50)})
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_a_stream_batch_is_sized_from_its_versions_values():
    """Simulated stream bytes stay the key size per row plus each value's
    size, with the per-value floor."""
    cluster = build(3, 2, 2)
    replica = cluster.replicas[0]
    versions = [VersionedValue(value, (1.0, "n", 1))
                for value in ("x" * 500, "y", ("tuple", 3))]
    assert replica._values_bytes(versions) == sum(
        replica._value_bytes(version) for version in versions)
    assert replica._values_bytes(versions[1:2]) \
        == cluster.config.value_size_bytes
