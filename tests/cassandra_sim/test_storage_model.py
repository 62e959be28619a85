"""The replica tables of a cluster against a reference model.

The model is what a table promises, spelt out as plainly as possible: one
dict of ``VersionedValue`` per replica, merged last-write-wins, two
counters beside it, and a sorted-key scan for range queries.  Hypothesis
drives a small ring through what fills its tables — preloads from a dict
or from a dataset's columns (a second one meets stored rows), keys created
by writes (a ring started without a preload, like fig15's million-key
cells), writes against rows never read, range streams between any two
replicas, joiners included, in batches that may overlap — and after every
step each table must hold what its model holds.  Those checks build no
version: a preloaded row has no version of its own (it is exported as the
time-zero marker) until a ``read`` or ``inspect`` step reads it with
``get``, so reads, writes and streams all meet rows never read.
"""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.cassandra_sim.cluster import CassandraCluster
from repro.cassandra_sim.config import CassandraConfig
from repro.cassandra_sim.partitioner import key_token, token_in_range
from repro.cassandra_sim.replica import CassandraReplica
from repro.cassandra_sim.storage import TIME_ZERO, VersionedValue
from repro.sim.environment import SimEnvironment
from repro.sim.network import KEY_SIZE_BYTES, MESSAGE_HEADER_BYTES, Network
from repro.sim.topology import Region
from repro.workloads.records import Dataset, time_zero_value

REGIONS = (Region.FRK, Region.IRL, Region.VRG)
#: Few keys, so preloads, writes and streams keep meeting the same rows.
KEYS = [f"user{i}" for i in range(14)] + ["", "é"]
PRELOAD = (0.0, "preload", 0)
#: Few distinct components, so equal, older and newer stamps all collide
#: (the preload stamp among them).
STAMPS = st.one_of(st.just(PRELOAD), st.tuples(
    st.sampled_from([0.0, 1.0, 2.5]), st.sampled_from(["n1", "n2", "preload"]),
    st.sampled_from([0, 1, 2**62])))
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
        self.writes_applied = self.writes_ignored = 0

    def apply(self, key, version):
        stored = self.rows.get(key)
        if stored is not None and not version.timestamp > stored.timestamp:
            self.writes_ignored += 1
            return False
        self.rows[key] = version
        self.writes_applied += 1
        return True

    def keys_in_range(self, start, end):
        return [key for key in sorted(self.rows)
                if token_in_range(key_token(key), start, end)]


def time_zero(space, kid):
    """Row ``kid``'s time-zero value: listed in the key space, or derived
    from the key past the list."""
    if kid < len(space.values):
        return space.values[kid]
    return time_zero_value(space.keys_of([kid])[0], space.value_size)


def every_key(space):
    """The key space's keys, by id."""
    return space.keys_of(range(len(space)))


def keys_at(space, ids):
    """The keys of ``ids``, in their order (``keys_of`` wants them
    ascending)."""
    return [space.keys_of([kid])[0] for kid in ids]


def resolved(table, kid, version):
    """``version`` as row ``kid`` of ``table`` reads, without building it
    (a row never read holds the marker)."""
    if version is TIME_ZERO:
        return VersionedValue(time_zero(table._space, kid), PRELOAD)
    return version


def sized(table, rows):
    """``values_and_unread`` of ``rows`` with the unread derived rows'
    values filled in, after checking they number ``unread`` and are each
    ``size`` long."""
    versions = table.versions_of(rows)
    values, unread, size = table.values_and_unread(rows, versions)
    derived = [time_zero(table._space, kid)
               for kid, version in zip(rows, versions)
               if version is TIME_ZERO and kid >= len(table._space.values)]
    assert unread == len(derived)
    assert all(len(value) == size for value in derived)
    return values + derived


def peek(table, key, held):
    """What ``table.get(key)`` answers, leaving the row as it is (``held``:
    the table's keys)."""
    if key not in held:
        return None
    kid = table._space.find(key)
    return resolved(table, kid, table.versions_of([kid])[0])


def exported(table, rows):
    """The rows ``rows`` as ``(key, version, token)`` triples, the key and
    token read from the key space, markers resolved."""
    space = table._space
    return [(key, resolved(table, kid, version), space.tokens[kid])
            for key, kid, version in zip(keys_at(space, rows), rows,
                                         table.versions_of(rows))]


def assert_matches(table, model):
    assert len(table) == len(model.rows)
    held = table.keys()
    assert held == tuple(sorted(model.rows))
    for key in KEYS + ["missing"]:
        assert peek(table, key, held) == model.rows.get(key)
    for counter in ("writes_applied", "writes_ignored"):
        assert getattr(table, counter) == getattr(model, counter), counter
    whole = table.rows_in_range(0, 0)
    assert exported(table, whole) == [
        (key, model.rows[key], key_token(key)) for key in sorted(model.rows)]
    assert sorted(map(repr, sized(table, whole))) == sorted(
        repr(model.rows[key].value) for key in model.rows)


def assert_reads_match(table, model):
    """Every way of reading a table, which builds the rows' versions."""
    assert [(key, table.get(key)) for key in table.keys()] == sorted(
        model.rows.items())
    for key in KEYS + ["missing"]:
        assert table.get(key) == model.rows.get(key)
        assert (key in table.keys()) == (key in model.rows)
    space = table._space
    for key in model.rows:
        assert space.tokens[space.find(key)] == key_token(key)
        assert table.versions_of([space.find(key)])[0] is not TIME_ZERO


def build(nodes, rf, vnodes):
    config = CassandraConfig(replication_factor=rf, vnodes_per_node=vnodes)
    return CassandraCluster(
        SimEnvironment(seed=3), config,
        nodes=[(f"node{i}", REGIONS[i % 3]) for i in range(nodes)])


STEPS = st.one_of(
    st.tuples(st.just("preload"), ITEMS),
    # A dataset's columns: keys user0 .. user<n-1>, a few of KEYS.
    st.tuples(st.just("preload-columns"), st.integers(1, 16),
              st.integers(1, 5)),
    # At any replica, or at one of the key's owners (a preloaded row).
    st.tuples(st.sampled_from(["write", "write-owner"]), st.integers(0, 7),
              st.sampled_from(KEYS), st.integers(), STAMPS),
    st.tuples(st.just("read"), st.integers(0, 7), st.sampled_from(KEYS)),
    st.tuples(st.just("inspect"), st.integers(0, 7)),
    st.tuples(st.just("join"), st.integers(0, 2)),
    st.tuples(st.just("stream"), st.integers(0, 7), st.integers(0, 7),
              BOUNDS, st.one_of(BOUNDS, st.just(None)),
              st.lists(st.tuples(st.integers(0, 16), st.integers(0, 16)),
                       max_size=4)),
)


@settings(deadline=None, max_examples=150)
@given(ring=st.tuples(st.integers(3, 6), st.integers(1, 3),
                      st.integers(1, 6)),
       steps=st.lists(STEPS, min_size=1, max_size=14))
def test_tables_match_the_reference_model(ring, steps):
    """Any sequence of preloads (from a dict or from columns), writes,
    reads, joins and streams — overlapping batches, a row streamed onto a
    replica that holds a newer or an older version of it, rows streamed
    before anyone read them, streams from a table whose rows arrived out of
    token order — leaves every table holding what its dict model holds."""
    cluster = build(*ring)
    replicas = cluster.replicas  # grows with every join
    models = {replica.name: ModelTable() for replica in replicas}
    for step in steps:
        kind = step[0]
        if kind.startswith("preload"):
            if kind == "preload":
                items = step[1]
            else:
                _, count, size = step
                items = Dataset(count, value_size_bytes=size).initial_items()
            cluster.preload(items)
            for key, value in items.items():
                for owner in cluster.partitioner.replicas_for_token(
                        key_token(key)):
                    models[owner].apply(key, VersionedValue(value, PRELOAD))
        elif kind.startswith("write"):
            _, which, key, value, stamp = step
            if kind == "write-owner":
                owners = cluster.partitioner.replicas_for(key)
                replica = cluster.replica_by_name(owners[which % len(owners)])
            else:
                replica = replicas[which % len(replicas)]
            version = VersionedValue(value, stamp)
            assert replica.table.apply(key, version) \
                == models[replica.name].apply(key, version)
        elif kind == "read":
            _, which, key = step
            replica = replicas[which % len(replicas)]
            assert replica.table.get(key) == models[replica.name].rows.get(key)
        elif kind == "inspect":
            replica = replicas[step[1] % len(replicas)]
            assert_reads_match(replica.table, models[replica.name])
        elif kind == "join":
            joiner = cluster._add_replica(f"joiner{len(replicas)}",
                                          REGIONS[step[1]])
            models[joiner.name] = ModelTable()
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
                target.table.merge(batch, source.table.versions_of(batch))
                for key in wanted[min(low, high):max(low, high)]:
                    models[target.name].apply(
                        key, models[source.name].rows[key])
        for replica in replicas:
            assert_matches(replica.table, models[replica.name])
    for replica in replicas:
        assert_reads_match(replica.table, models[replica.name])
        assert_matches(replica.table, models[replica.name])


def test_two_clusters_share_no_key_ids():
    """A key space belongs to one cluster: another cluster in the same
    process numbers its own keys from zero and never sees the first's."""
    first, second = build(4, 3, 4), build(4, 3, 4)
    first_keys = [f"a{i}" for i in range(20)]
    second_keys = [f"b{i}" for i in range(5)] + ["fresh"]
    first.preload(dict.fromkeys(first_keys, 1))
    second.preload(dict.fromkeys(second_keys[:-1], 1))
    second.replicas[0].table.apply("fresh", VersionedValue(1, (1.0, "n", 1)))
    assert first.keyspace is not second.keyspace
    assert sorted(map(first.keyspace.find, first_keys)) == list(range(20))
    assert sorted(map(second.keyspace.find, second_keys)) == list(range(6))
    assert not set(every_key(first.keyspace)) & set(every_key(second.keyspace))
    assert first.keyspace.find("fresh") is None
    for replica in first.replicas:
        assert replica.table._space is first.keyspace
        assert all(replica.table.get(key) is None for key in second_keys)
    joiner = first._add_replica("joiner", Region.FRK)
    assert joiner.table._space is first.keyspace and len(joiner.table) == 0


def test_a_preloaded_row_holds_the_marker_until_its_first_read():
    """Every owner's row holds the one shared marker; a read builds that
    replica's own version, equal to what every other owner builds, and
    keeps it."""
    cluster = build(5, 3, 4)
    items = {f"user{i}": f"value{i}" for i in range(40)}
    cluster.preload(items)
    space = cluster.keyspace
    for key, value in items.items():
        owners = [cluster.replica_by_name(name).table
                  for name in cluster.partitioner.replicas_for(key)]
        kid = space.find(key)
        assert all(table.versions_of([kid])[0] is TIME_ZERO
                   for table in owners)
        first = owners[0].get(key)
        assert first == VersionedValue(value, PRELOAD)
        assert owners[0].get(key) is first
        assert owners[0].versions_of([kid])[0] is first
        assert owners[1].versions_of([kid])[0] is TIME_ZERO
        assert owners[1].get(key) == first


@pytest.mark.parametrize("stamp, applied", [
    ((0.0, "a-node", 9), False),  # older than the preload stamp
    (PRELOAD, False),              # equal: not newer
    ((0.0, "preload", 1), True),   # newer
])
def test_a_write_against_an_unread_row_compares_the_preload_stamp(stamp,
                                                                  applied):
    cluster = build(4, 3, 4)
    cluster.preload({"k": "pre"})
    owner = cluster.partitioner.replicas_for("k")[0]
    table = cluster.replica_by_name(owner).table
    assert table.versions_of([cluster.keyspace.find("k")]) == [TIME_ZERO]
    assert table.apply("k", VersionedValue("new", stamp)) is applied
    assert table.get("k") == (VersionedValue("new", stamp) if applied
                              else VersionedValue("pre", PRELOAD))
    assert (table.writes_applied, table.writes_ignored) == (
        (2, 0) if applied else (1, 1))


def test_an_unread_row_streams_as_the_marker_and_reads_on_the_joiner():
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
        assert joiner.table.versions_of([cluster.keyspace.find(key)])[0] \
            is TIME_ZERO
        assert joiner.table.get(key) == VersionedValue(items[key], PRELOAD)


#: Keys no record of a 200-record dataset is named: the same digits
#: spelt otherwise, a sign, a space, and indices past the last record.
NON_CANONICAL = ["user007", "user-1", "user+1", "user 1", "user1 ", "user٣",
                 "user200", "user400000", "user", "x1"]
#: A dict over the dataset's keys: three records, two non-canonical keys
#: and keys of no record.
DICT_ITEMS = {"user3": "d3", "user150": "d150", "user199": "d199",
              "user007": "d7", "user-1": "dm",
              **{f"x{i}": i for i in range(9)}}


@pytest.mark.parametrize("steps", [
    ["dataset"],
    ["dataset", "dict"],
    ["dict", "dataset"],
    ["writes", "dataset", "writes"],
    ["dataset", "writes", "dict"],
], ids="-then-".join)
def test_derived_keys_behave_exactly_like_listed_keys(steps):
    """One ring preloads a dataset as its ``TimeZeroItems`` (keys derived
    from record indices), the other as the equal dict (keys listed); each
    also gets the same dict preloads and writes that create keys.  Every
    ``find``, ``keys()``, ``rows_in_range`` and stream batch is the same
    on both, ids and versions included, and no non-canonical key resolves
    to a base id."""
    dataset = Dataset(200, value_size_bytes=9)
    rings = []
    for derived in (True, False):
        env = SimEnvironment(seed=3)
        cluster = CassandraCluster(
            env, CassandraConfig(stream_batch_items=16),
            nodes=[(f"node{i}", REGIONS[i % 3]) for i in range(5)])
        for step in steps:
            if step == "dataset":
                items = dataset.initial_items()
                cluster.preload(items if derived else dict(items.items()))
            elif step == "dict":
                cluster.preload(DICT_ITEMS)
            else:
                for at, key in enumerate(["user5", "user007", "zz", "user-1"]):
                    cluster.replicas[at].table.apply(
                        key, VersionedValue(key, (1.0 + at, "n", 1)))
        rings.append((env, cluster))
    (_, derived), (_, listed) = rings
    space = derived.keyspace
    first_on_empty = steps[0] == "dataset"
    assert space.based == (200 if first_on_empty else 0)
    assert listed.keyspace.based == 0
    if first_on_empty:
        assert not set(space.keys) & set(dataset.keys())
    probes = dataset.keys() + NON_CANONICAL + list(DICT_ITEMS) + ["zz"]
    assert list(map(space.find, probes)) == list(map(listed.keyspace.find,
                                                     probes))
    for key in NON_CANONICAL:
        assert space.find(key) is None or space.find(key) >= space.based
    assert space.tokens == listed.keyspace.tokens
    bounds = [(0, 0), (2**63, 2**62), (2**60, 2**63)]
    for left, right in zip(derived.replicas, listed.replicas):
        assert left.table.keys() == right.table.keys()
        for start, end in bounds:
            rows = left.table.rows_in_range(start, end)
            assert rows == right.table.rows_in_range(start, end)
            assert left.table.versions_of(rows) == \
                right.table.versions_of(rows)
    batches = ([], [])
    fused_send_to = Network.fused_send_to

    def send(network, src, dst, size_bytes, fn, args):
        if getattr(fn, "__func__", None) is CassandraReplica._stream_hop \
                and args[2].__func__ is CassandraReplica._stream_apply:
            batches[network is rings[1][0].network].append(
                (size_bytes, list(args[0].batch), args[0].versions))
        return fused_send_to(network, src, dst, size_bytes, fn, args)

    Network.fused_send_to = send
    try:
        for env, cluster in rings:
            assert cluster.join_node("joiner", Region.FRK) is not None
            env.run_until_idle()
    finally:
        Network.fused_send_to = fused_send_to
    assert batches[0] and batches[0] == batches[1]
    for left, right in zip(derived.replicas, listed.replicas):
        assert list(map(left.table.get, probes)) == \
            list(map(right.table.get, probes))


def test_a_second_preload_of_a_key_keeps_the_first_value():
    """An equal stamp is ignored, so re-preloading a key — read or not —
    changes no owner's value, while a key new to that preload is stored."""
    cluster = build(4, 3, 4)
    cluster.preload({"a": "first", "b": "first"})
    read = cluster.partitioner.replicas_for("a")[0]
    assert cluster.replica_by_name(read).table.get("a").value == "first"
    cluster.preload({"a": "second", "b": "second", "c": "second"})
    for key, value in (("a", "first"), ("b", "first"), ("c", "second")):
        for name in cluster.partitioner.replicas_for(key):
            assert cluster.replica_by_name(name).table.get(key).value == value


def test_a_key_created_after_a_table_was_built_reads_as_absent_there():
    cluster = build(4, 2, 4)
    joiner = cluster._add_replica("late", Region.IRL)
    first = cluster.replicas[0].table
    first.apply("made-later", VersionedValue(1, (1.0, "n", 1)))
    assert joiner.table.get("made-later") is None
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
    ids = {key: space.find(key) for key in first}
    second = {f"b{i}": i for i in range(30)}
    cluster.preload({**first, **second})
    assert {key: space.find(key) for key in first} == ids
    assert sorted(map(space.find, [*first, *second])) == list(range(60))
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


@pytest.mark.parametrize("values, size", [
    (["x" * 500, "y", "z" * 100], 700),     # every one ASCII: the bulk sum
    (["x" * 500, "y", ("tuple", 3)], 700),  # not all str: the loop
    (["x" * 500, "é" * 300], 1100),         # not all ASCII: the loop
    ([], 0),
])
def test_a_stream_batch_is_sized_from_its_values(values, size):
    """Simulated stream bytes stay the key size per row plus each value's
    size (UTF-8 bytes for a string), with the per-value floor of 100."""
    replica = build(3, 2, 2).replicas[0]
    assert replica._values_bytes(values) == size == sum(
        map(replica._value_bytes, values))


def join_with_reads(size, read_every, batch=7):
    """A 5-node ring preloaded from a dataset of ``size``-character values,
    every ``read_every``-th key read at each owner (none for 0), then a
    node joined:
    the cluster and each stream batch sent as ``(size_bytes, keys,
    versions)`` (a batch ships key ids; its keys are the key space's)."""
    env = SimEnvironment(seed=3)
    cluster = CassandraCluster(
        env, CassandraConfig(stream_batch_items=batch),
        nodes=[(f"node{i}", REGIONS[i % 3]) for i in range(5)])
    dataset = Dataset(120, value_size_bytes=size)
    cluster.preload(dataset.initial_items())
    for index in range(0, 120 if read_every else 0, read_every or 1):
        key = dataset.key(index)
        for owner in cluster.partitioner.replicas_for(key):
            cluster.replica_by_name(owner).table.get(key)
    sent = []
    fused_send_to = Network.fused_send_to

    def send(network, src, dst, size_bytes, fn, args):
        if getattr(fn, "__func__", None) is CassandraReplica._stream_hop \
                and args[2].__func__ is CassandraReplica._stream_apply:
            stream = args[0]
            sent.append((size_bytes,
                         keys_at(cluster.keyspace, stream.batch),
                         stream.versions))
        return fused_send_to(network, src, dst, size_bytes, fn, args)

    Network.fused_send_to = send
    try:
        assert cluster.join_node("joiner", Region.FRK) is not None
        env.run_until_idle()
    finally:
        Network.fused_send_to = fused_send_to
    return cluster, sent


@pytest.mark.parametrize("size", [11, 150])
def test_every_time_zero_read_is_the_key_function(size):
    """``initial_value``, ``initial_items()``, a preloaded row's first read
    and a joiner's first read of a row streamed unread all give
    ``time_zero_value(key, size)``."""
    dataset = Dataset(120, value_size_bytes=size)
    items = dataset.initial_items()
    for index in range(120):
        key = dataset.key(index)
        assert dataset.initial_value(index) == items[key] == \
            time_zero_value(key, size)
    assert dict(items.items()) == {key: time_zero_value(key, size)
                                   for key in dataset.keys()}
    cluster, _ = join_with_reads(size, read_every=3)
    joiner = cluster.replica_by_name("joiner").table
    unread = 0
    for key in joiner.keys():
        unread += joiner.versions_of([cluster.keyspace.find(key)])[0] \
            is TIME_ZERO
        assert joiner.get(key) == VersionedValue(time_zero_value(key, size),
                                                 PRELOAD)
    assert 0 < unread < len(joiner)  # read rows streamed as versions too
    for replica in cluster.replicas:
        for key in replica.table.keys():
            assert replica.table.get(key).value == time_zero_value(key, size)


@pytest.mark.parametrize("size", [40, 100, 150])
@pytest.mark.parametrize("read_every", [1, 2, 0], ids=["all-read",
                                                      "half-read", "unread"])
def test_a_stream_batch_weighs_what_its_values_weigh(size, read_every):
    """A batch's wire size is the header, the key size per row and
    ``_values_bytes`` of every row's value as the target reads it — its
    unread rows counted as ``max(size, value_size_bytes)`` each without
    deriving them — with values shorter and longer than the config's."""
    cluster, sent = join_with_reads(size, read_every)
    replica = cluster.replicas[0]
    assert sent
    mixed = unread_rows = 0
    for size_bytes, keys, versions in sent:
        values = [time_zero_value(key, size) if version is TIME_ZERO
                  else version.value for key, version in zip(keys, versions)]
        unread = sum(version is TIME_ZERO for version in versions)
        mixed += 0 < unread < len(keys)
        unread_rows += unread
        assert size_bytes == (MESSAGE_HEADER_BYTES
                              + KEY_SIZE_BYTES * len(keys)
                              + replica._values_bytes(values))
    assert (mixed > 0) == (read_every == 2)
    assert (unread_rows > 0) == (read_every != 1)


def test_values_and_unread_reads_listed_unread_rows_from_the_key_space():
    cluster = build(3, 1, 2)
    items = {f"user{i}": f"value{i}" * i for i in range(30)}
    cluster.preload(items)
    table = cluster.replicas[0].table
    table.apply("user1", VersionedValue("written", (1.0, "n", 1)))
    table.get("user2")
    rows = table.rows_in_range(0, 0)
    keys = keys_at(table._space, rows)
    values, unread, _ = table.values_and_unread(rows, table.versions_of(rows))
    assert unread == 0
    assert sorted(values) == sorted(
        "written" if key == "user1" else items[key] for key in keys)


@pytest.mark.parametrize("written", [["zz"], ["zz", "user3"], []],
                         ids=["other-key", "preloaded-key", "none"])
def test_a_columns_preload_after_a_write_reads_every_row_by_key_id(written):
    """Regression: a write takes key id 0 before a dataset's columns are
    preloaded, so the preloaded rows' ids start past it; the value column
    must be addressed by key id, not by its own row number."""
    dataset = Dataset(60, value_size_bytes=11)
    cluster = build(4, 3, 4)
    for key in written:
        cluster.replicas[0].table.apply(key, VersionedValue("w", (1.0, "n", 1)))
    cluster.preload(dataset.initial_items())
    expected = {dataset.key(i): dataset.initial_value(i) for i in range(60)}
    writer = cluster.replicas[0].table
    for replica in cluster.replicas:
        table = replica.table
        rows = table.rows_in_range(0, 0)
        keys = keys_at(table._space, rows)
        wanted = ["w" if table is writer and key in written else expected[key]
                  for key in keys]
        assert sorted(sized(table, rows)) == sorted(wanted)
        assert [table.get(key).value for key in keys] == wanted


def test_preloads_from_columns_and_dicts_in_turn_keep_every_value():
    """A dict preload after a columns preload, and a columns preload after
    a dict one, each onto new keys: every row reads its own value."""
    cluster = build(4, 2, 4)
    first = Dataset(40, value_size_bytes=5, key_prefix="a")
    third = Dataset(30, value_size_bytes=8, key_prefix="c")
    cluster.preload(first.initial_items())
    cluster.preload({f"b{i}": i for i in range(25)})
    cluster.preload(third.initial_items())
    expected = {**dict(first.initial_items().items()),
                **{f"b{i}": i for i in range(25)},
                **dict(third.initial_items().items())}
    for key, value in expected.items():
        for name in cluster.partitioner.replicas_for(key):
            assert cluster.replica_by_name(name).table.get(key) == \
                VersionedValue(value, PRELOAD)
