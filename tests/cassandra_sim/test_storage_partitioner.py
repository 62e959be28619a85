"""Tests for the LWW storage engine, versions, and the ring partitioner."""

import hashlib
from array import array
from bisect import bisect_right
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.cassandra_sim import cluster as cluster_module, storage
from repro.cassandra_sim.cluster import CassandraCluster
from repro.cassandra_sim.config import CassandraConfig
from repro.cassandra_sim.partitioner import (
    RingPartitioner,
    key_token,
    key_tokens,
    node_tokens,
    token_in_range,
)
from repro.cassandra_sim.storage import (PRELOAD_STAMP, ColumnarTable,
                                         KeySpace, VersionedValue, resolve)
from repro.sim.environment import SimEnvironment
from repro.sim.topology import Region
from repro.workloads.records import Dataset, time_zero_value


class TestVersions:
    def test_newer_than_none(self):
        assert VersionedValue("a", (1.0, "n1", 1)).newer_than(None)

    def test_timestamp_ordering(self):
        older = VersionedValue("a", (1.0, "n1", 1))
        newer = VersionedValue("b", (2.0, "n1", 1))
        assert newer.newer_than(older)
        assert not older.newer_than(newer)

    def test_tie_broken_by_writer_then_sequence(self):
        a = VersionedValue("a", (1.0, "node-a", 1))
        b = VersionedValue("b", (1.0, "node-b", 1))
        assert b.newer_than(a)
        c = VersionedValue("c", (1.0, "node-b", 2))
        assert c.newer_than(b)

    def test_resolve_picks_newest(self):
        versions = [VersionedValue("a", (1.0, "x", 1)),
                    None,
                    VersionedValue("b", (3.0, "x", 1)),
                    VersionedValue("c", (2.0, "x", 1))]
        assert resolve(versions).value == "b"

    def test_resolve_all_missing(self):
        assert resolve([None, None]) is None

    def test_resolve_empty(self):
        assert resolve([]) is None


class TestKeySpace:
    def test_ids_are_dense_and_a_known_key_keeps_its_id(self):
        space = KeySpace()
        assert [space.add(key, 10 * i) for i, key in enumerate("abc")] \
            == [0, 1, 2]
        assert space.add("b", 0) == 1  # the first token stays
        assert len(space) == 3 and space.keys == ["a", "b", "c"]
        assert list(space.tokens) == [0, 10, 20]

    def test_intern_assigns_new_keys_in_row_order(self):
        space = KeySpace()
        space.add("b", 5)
        assert space.intern(["c", "b", "a", "c"], [1, 2, 3, 4]) == [1, 0, 2, 1]
        assert space.keys == ["b", "c", "a"]
        assert list(space.tokens) == [5, 1, 3]

    def test_extend_appends_a_range_of_ids_and_grows_every_column(self):
        space = KeySpace()
        column = space.new_column()
        space.add("a", 1)
        ids = space.extend(["b", "c"], [2, 3], ["vb", "vc"])
        assert ids == range(1, 3)
        assert space.ids == {"a": 0, "b": 1, "c": 2}
        # Ids 1 and 2 have time-zero values; id 0, made by a write, none.
        assert space.values == [None, "vb", "vc"]
        assert space.value_size == 0
        assert column == [None] * 3
        assert space.new_column() == [None] * 3
        assert space._order is None

    def test_extend_keeps_a_value_size_for_values_derived_by_key_id(self):
        space = KeySpace()
        space.add("a", 1)
        ids = space.extend(["b", "c", "d"], [2, 3, 4], value_size=4)
        assert ids == range(1, 4)
        # Nothing listed: every id past the list derives from its key.
        assert space.values == [] and space.value_size == 4
        assert all(len(space.values) <= kid for kid in ids)

    def test_a_listed_extend_after_a_derived_one_lists_the_derived_values(
            self):
        space = KeySpace()
        space.extend(["a", "b"], [1, 2], value_size=3)
        space.extend(["c"], [3], ["vc"])
        assert space.values == [time_zero_value("a", 3),
                                time_zero_value("b", 3), "vc"]
        # A derived extend of another size lists what was derived before.
        space.extend(["d"], [4], value_size=5)
        space.extend(["e"], [5], value_size=7)
        assert space.values[3] == time_zero_value("d", 5)
        assert len(space.values) == 4 and space.value_size == 7

    def test_an_argsort_is_rebuilt_once_keys_were_added(self):
        space = KeySpace()
        space.extend(["a", "b"], [20, 10], "ab")  # out of order: an argsort
        assert list(space.ids_in_range(0, 30)) == [1, 0]
        space.add("c", 15)
        assert list(space.ids_in_range(0, 30)) == [1, 2, 0]
        assert list(space.ids_in_range(15, 12)) == [2, 0, 1]

    def test_a_wrapping_range_on_an_ordered_space(self):
        space = KeySpace()
        space.extend(["a", "b", "c", "d"], [10, 20, 30, 40], "abcd")
        assert list(space.ids_in_range(30, 20)) == [2, 3, 0]
        assert list(space.ids_in_range(20, 20)) == [1, 2, 3, 0]
        assert list(space.ids_in_range(41, 10)) == []
        assert list(space.ids_in_range(15, 35)) == [1, 2]


class TestTable:
    def test_read_missing_returns_none(self):
        assert ColumnarTable().get("nope") is None

    def test_apply_then_read(self):
        table = ColumnarTable()
        version = VersionedValue("v", (1.0, "n", 1))
        assert table.apply("k", version)
        assert table.get("k") is version
        assert table.contains("k")
        assert len(table) == 1

    def test_stale_write_ignored(self):
        table = ColumnarTable()
        newer = VersionedValue("new", (5.0, "n", 1))
        older = VersionedValue("old", (1.0, "n", 1))
        table.apply("k", newer)
        assert not table.apply("k", older)
        assert table.get("k").value == "new"
        assert table.writes_ignored == 1

    def test_counters(self):
        table = ColumnarTable()
        table.get("a")
        table.apply("a", VersionedValue("v", (1.0, "n", 1)))
        assert table.writes_applied == 1

    def test_tie_breaking_matches_tuple_order(self):
        table = ColumnarTable()
        table.apply("k", VersionedValue("a", (1.0, "node-a", 5)))
        assert table.apply("k", VersionedValue("b", (1.0, "node-b", 1)))
        assert not table.apply("k", VersionedValue("c", (1.0, "node-a", 9)))
        assert table.get("k").value == "b"

    def test_a_caller_supplied_token_is_kept_for_a_new_key(self):
        table = ColumnarTable()
        assert table.apply("k", VersionedValue("v", (1.0, "n", 1)), 7)
        assert table.token("k") == 7
        # A key the space knows keeps its token, whatever a later caller
        # passes.
        assert table.apply("k", VersionedValue("w", (2.0, "n", 1)), 9)
        assert table.token("k") == 7

    def test_tables_over_one_space_select_only_their_own_rows(self):
        space = KeySpace()
        left, right = ColumnarTable(space), ColumnarTable(space)
        keys = [f"user{i}" for i in range(20)]
        for i, key in enumerate(keys):
            (left if i % 3 else right).apply(
                key, VersionedValue(i, (1.0, "n", 1)))
        assert len(space) == 20
        assert keys_in_range(left, 0, 0) == tuple(sorted(
            key for i, key in enumerate(keys) if i % 3))
        assert keys_in_range(right, 0, 0) == tuple(sorted(keys[::3]))
        assert keys_in_range(right, 2**63, 2**63 - 1) == \
            scan_keys_in_range(right, 2**63, 2**63 - 1)

    def test_merge_over_a_shared_space_reuses_the_ids(self):
        space = KeySpace()
        source, target = ColumnarTable(space), ColumnarTable(space)
        for key in ("a", "b", "c"):
            source.apply(key, VersionedValue(key, (1.0, "n", 1)))
        rows = source.rows_in_range(0, 0)
        target.merge(rows, source.versions_of(rows))
        assert len(space) == 3
        assert target.rows_in_range(0, 0) == rows
        assert list(target.items()) == list(source.items())

    def test_merge_stores_unheld_rows_wholesale_and_held_ones_by_lww(self):
        space = KeySpace()
        table = ColumnarTable(space)
        keys = sorted("abc", key=key_token)  # a base run: in token order
        ids = space.extend(keys, key_tokens(keys), keys)
        old = [VersionedValue(key, (1.0, "n", 1)) for key in keys]
        table.merge(ids, old)
        assert [table.get(key) for key in keys] == old
        assert (len(table), table.writes_applied) == (3, 3)
        newer = VersionedValue("b2", (2.0, "n", 1))
        older = VersionedValue("c0", (0.5, "n", 1))
        table.merge([space.find("b"), space.find("c")], [newer, older])
        assert table.get("b") is newer
        assert table.get("c") is old[keys.index("c")]
        assert (len(table), table.writes_applied, table.writes_ignored) \
            == (3, 4, 1)

    def test_a_wrong_token_cannot_give_a_base_key_a_second_id(self):
        """A base key is looked up by its own token, whatever token a
        caller passes with it."""
        space = KeySpace()
        table = ColumnarTable(space)
        keys = sorted("abc", key=key_token)
        ids = space.extend(keys, key_tokens(keys), value_size=2)
        wrong = (key_token("b") + 1) % 2**64
        kid = keys.index("b")
        assert space.add("b", wrong) == kid
        del space.ids["b"]  # forgotten again: the base lookup runs anew
        assert space.intern(["b", "b"], [wrong, 0]) == [kid, kid]
        del space.ids["b"]
        table.merge(ids, [storage.TIME_ZERO] * 3)
        assert table.apply("b", VersionedValue("w", (1.0, "n", 1)), wrong)
        assert len(space) == 3 and space.keys == keys
        assert space.ids == {"b": kid}
        assert table.token("b") == key_token("b")
        assert len(table) == 3 and table.get("b").value == "w"

    def test_a_key_another_table_created_is_not_held(self):
        """Tables over one key space see its ids, not each other's rows."""
        space = KeySpace()
        left, right = ColumnarTable(space), ColumnarTable(space)
        left.apply("k", VersionedValue("v", (1.0, "n", 1)))
        assert right.get("k") is None and not right.contains("k")
        assert len(right) == 0 and right.keys() == ()
        assert list(right.rows_in_range(0, 0)) == []
        with pytest.raises(KeyError):
            right.token("k")


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=100,
                                    allow_nan=False),
                          st.sampled_from(["n1", "n2", "n3"]),
                          st.integers(min_value=0, max_value=10),
                          st.integers()),
                min_size=1, max_size=30))
def test_lww_register_converges_regardless_of_order(writes):
    """Applying the same writes in any order yields the same final value.

    Timestamps are unique in the simulator (per-coordinator sequence numbers
    break ties), so duplicate timestamps are collapsed before checking.
    """
    unique = {}
    for ts, writer, seq, value in writes:
        unique.setdefault((ts, writer, seq), value)
    versions = [VersionedValue(value, timestamp)
                for timestamp, value in unique.items()]
    forward, backward = ColumnarTable(), ColumnarTable()
    for version in versions:
        forward.apply("k", version)
    for version in reversed(versions):
        backward.apply("k", version)
    assert forward.get("k") == backward.get("k")
    assert forward.get("k") == resolve(versions)


#: Ring positions: the full unsigned 64-bit token space.
TOKENS = st.integers(min_value=0, max_value=2**64 - 1)


def scan_keys_in_range(table, start, end):
    """The full-table scan ``rows_in_range`` replaced: sort every key, hash
    every key, keep the ones in range.  Kept here as the reference."""
    return tuple(key for key in table.keys()
                 if token_in_range(key_token(key), start, end))


def keys_in_range(table, start, end):
    """The keys of the rows ``rows_in_range`` selects, in its order."""
    return tuple(map(table._space.keys.__getitem__,
                     table.rows_in_range(start, end)))


def merge_columns(table, keys, versions, tokens):
    """Merge rows given by key, version and token: their ids interned, new
    keys with their ``tokens``."""
    table.merge(table._space.intern(keys, tokens), versions)


def versions_of(keys, stamp):
    return [VersionedValue(key, stamp) for key in keys]


class TestTokenColumn:
    def test_empty_table_selects_nothing(self):
        table = ColumnarTable()
        assert keys_in_range(table, 0, 2**63) == ()
        assert keys_in_range(table, 7, 7) == ()

    def test_tokens_and_sequences_beyond_signed_64_bit(self):
        """Tokens are the top 64 bits of md5 — half exceed 2**63 — and a
        sequence number near 2**62 must survive next to them."""
        table = ColumnarTable()
        high = [key for key in (f"user{i}" for i in range(40))
                if key_token(key) >= 2**63]
        low = [key for key in (f"user{i}" for i in range(40))
               if key_token(key) < 2**63]
        assert high and low
        seq = 2**62 - 1
        for key in high + low:
            assert table.apply(key, VersionedValue(key, (1.0, "n1", seq)))
        # A caller-supplied token is stored verbatim, up to the very top.
        assert table.apply("edge", VersionedValue("e", (1.0, "n1", seq)),
                           2**64 - 1)
        for key in high + low:
            assert table.token(key) == key_token(key)
            assert table.get(key).timestamp == (1.0, "n1", seq)
        assert table.token("edge") == 2**64 - 1
        # [2**63, 0) wraps over the seam: exactly the upper half.
        assert keys_in_range(table, 2**63, 0) == tuple(sorted(high + ["edge"]))
        assert keys_in_range(table, 0, 2**63) == tuple(sorted(low))
        assert keys_in_range(table, 2**64 - 1, 0) == ("edge",)
        # A newer write with a bigger sequence still wins.
        assert table.apply(high[0], VersionedValue("z", (1.0, "n1", seq + 1)))
        assert not table.apply(high[0], VersionedValue("y", (1.0, "n1", seq)))

    @given(data=st.data())
    def test_rows_in_range_matches_the_full_scan(self, data):
        """Any interleaving of inserts and range queries — wrapping ranges,
        ``start == end``, bounds exactly on a stored token, queries on the
        empty table — selects what the full scan selects, in its order.

        The table may start as a preload leaves it: token-ordered runs, so
        its key space's token column is in order.  Inserts between queries
        — single rows through ``apply``, batches through ``merge``
        that may carry stored keys too, each batch in token order or not —
        keep that order or break it, and exercise the argsort rebuild."""
        keys = data.draw(st.lists(st.text(max_size=6), unique=True,
                                  max_size=25))
        bounds = TOKENS
        if keys:
            on_token = st.sampled_from(keys).map(key_token)
            bounds = st.one_of(TOKENS, on_token,
                               on_token.map(lambda t: (t + 1) % 2**64))
        table = ColumnarTable()
        preloaded = sorted(keys[:data.draw(st.integers(0, len(keys)))],
                           key=key_token)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(preloaded)),
                                         max_size=3)))
        for low, high in zip([0] + cuts, cuts + [len(preloaded)]):
            run = preloaded[low:high]
            merge_columns(table, run, versions_of(run, (0.0, "preload", 0)),
                          [key_token(key) for key in run])
        pending = keys[len(preloaded):]
        for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
            new = [pending.pop()
                   for _ in range(data.draw(st.integers(0, len(pending))))]
            if data.draw(st.booleans()):
                for key in new:
                    table.apply(key, VersionedValue(key, (1.0, "n", 1)))
            else:
                stored = [key for key in keys if table.contains(key)]
                batch = new + data.draw(st.lists(
                    st.sampled_from(stored), unique=True) if stored
                    else st.just([]))
                batch = data.draw(st.one_of(
                    st.permutations(batch),
                    st.just(sorted(batch, key=key_token))))
                merge_columns(table, batch, versions_of(batch, (1.5, "n", 1)),
                              [key_token(key) for key in batch])
            for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
                start = data.draw(bounds)
                end = data.draw(st.one_of(bounds, st.just(start)))
                assert (keys_in_range(table, start, end)
                        == scan_keys_in_range(table, start, end))
            # An overwrite is not a key-set change: still exact.
            for key in keys[:2]:
                if table.contains(key):
                    table.apply(key, VersionedValue("again", (2.0, "n", 2)))
        assert keys_in_range(table, 0, 0) == table.keys()


#: Keys for the bulk-merge properties; every second one carries a token in
#: the upper half of the ring (the part a signed 64-bit column would lose).
ROW_KEYS = [f"row{i}" for i in range(14)]
ROW_TOKENS = {key: 2**64 - 1 - 7919 * i if i % 2 else key_token(key) % 2**63
              for i, key in enumerate(ROW_KEYS)}
#: Few distinct components, so equal, older and newer stamps all collide.
STAMPS = st.tuples(st.sampled_from([0.0, 1.0, 2.5]),
                   st.sampled_from(["n1", "n2", "preload"]),
                   st.sampled_from([0, 1, 2**62]))
#: One batch: rows of a key, a value and a stamp — a key may repeat.
BATCHES = st.lists(st.tuples(st.sampled_from(ROW_KEYS), st.integers(), STAMPS),
                   max_size=2 * len(ROW_KEYS))


def apply_one_by_one(table, rows):
    for key, value, stamp in rows:
        table.apply(key, VersionedValue(value, stamp), ROW_TOKENS[key])


def as_columns(rows):
    return ([key for key, _, _ in rows],
            [VersionedValue(value, stamp) for _, value, stamp in rows],
            [ROW_TOKENS[key] for key, _, _ in rows])


def exported(table, rows):
    """The rows ``rows`` as ``(key, version, token)`` triples."""
    space = table._space
    return [(space.keys[kid], version, space.tokens[kid])
            for kid, version in zip(rows, table.versions_of(rows))]


def assert_same_table(left, right):
    assert len(left) == len(right)
    assert left.keys() == right.keys()
    assert list(left.items()) == list(right.items())
    for key in left.keys():
        assert left.token(key) == right.token(key)
    for counter in ("writes_applied", "writes_ignored"):
        assert getattr(left, counter) == getattr(right, counter), counter
    # Same key ids too: stream tasks walk rows by them.
    assert left.rows_in_range(0, 0) == right.rows_in_range(0, 0)


class TestBulkRows:
    @given(stored=BATCHES, batches=st.lists(BATCHES, min_size=1, max_size=3),
           data=st.data())
    def test_merge_equals_row_by_row_apply(self, stored, batches, data):
        """Merging columns is applying their rows one by one: onto an empty
        table, onto disjoint and overlapping key sets, with newer, older and
        equal stamps, tokens past 2**63, keys repeated within a batch, each
        batch cut at arbitrary points — same rows, same key ids, same
        counters."""
        bulk, reference = ColumnarTable(), ColumnarTable()
        apply_one_by_one(bulk, stored)
        apply_one_by_one(reference, stored)
        for batch in batches:
            cuts = sorted(data.draw(st.lists(
                st.integers(0, len(batch)), max_size=3)))
            for low, high in zip([0] + cuts, cuts + [len(batch)]):
                merge_columns(bulk, *as_columns(batch[low:high]))
            apply_one_by_one(reference, batch)
            assert_same_table(bulk, reference)
            everything = bulk.rows_in_range(0, 0)
            assert exported(bulk, everything) == exported(reference,
                                                          everything)

    def test_a_key_repeated_in_one_batch_merges_row_by_row(self):
        """A later duplicate wins only if its stamp is newer, and the key
        is one row: the table keeps its length and its range index."""
        table, reference = ColumnarTable(), ColumnarTable()
        rows = [("row1", "new", (2.0, "n1", 1)), ("row2", "x", (1.0, "n1", 1)),
                ("row1", "old", (1.0, "n1", 1))]
        merge_columns(table, *as_columns(rows))
        apply_one_by_one(reference, rows)
        assert len(table) == 2
        assert table.get("row1").value == "new"
        assert (table.writes_applied, table.writes_ignored) == (2, 1)
        assert keys_in_range(table, 0, 0) == ("row1", "row2")
        assert_same_table(table, reference)

    @given(stored=BATCHES, overwrites=BATCHES)
    def test_streaming_every_row_round_trips_a_table(self, stored,
                                                     overwrites):
        """Every row of a table, its versions merged by id into an empty
        table over the same key space (what a stream batch does), rebuilds
        it exactly — the very version objects; merging the same rows again
        is a no-op (LWW is idempotent: an equal stamp is not newer)."""
        table = ColumnarTable()
        apply_one_by_one(table, stored)
        apply_one_by_one(table, overwrites)
        everything = table.rows_in_range(0, 0)
        versions = table.versions_of(everything)
        copy = ColumnarTable(table._space)
        copy.merge(everything, versions)
        assert list(copy.items()) == list(table.items())
        assert all(copy.get(table._space.keys[kid]) is version
                   for kid, version in zip(everything, versions))
        assert (copy.writes_applied, copy.writes_ignored) == (len(table), 0)
        copy.merge(everything, versions)
        assert list(copy.items()) == list(table.items())
        assert (copy.writes_applied, copy.writes_ignored) == (len(table),
                                                              len(table))

    @given(data=st.data())
    def test_merge_of_held_and_unheld_rows_equals_row_by_row_apply(self, data):
        """A batch of distinct ids, some held and some not, in any order:
        the unheld rows stored wholesale and the held ones compared by LWW
        leave the rows, key ids and counters row-by-row ``apply`` leaves."""
        held = data.draw(st.lists(st.sampled_from(ROW_KEYS), unique=True,
                                  min_size=1, max_size=len(ROW_KEYS) - 1))
        stored = [(key, data.draw(st.integers()), data.draw(STAMPS))
                  for key in held]
        bulk, reference = ColumnarTable(), ColumnarTable()
        apply_one_by_one(bulk, stored)
        apply_one_by_one(reference, stored)
        fresh = [key for key in ROW_KEYS if key not in held]
        keys = data.draw(st.permutations(
            data.draw(st.lists(st.sampled_from(held), unique=True,
                               min_size=1))
            + data.draw(st.lists(st.sampled_from(fresh), unique=True,
                                 min_size=1))))
        batch = [(key, data.draw(st.integers()), data.draw(STAMPS))
                 for key in keys]
        merge_columns(bulk, *as_columns(batch))
        apply_one_by_one(reference, batch)
        assert_same_table(bulk, reference)


#: Keys of the base-run model: a dataset's (``user0`` ...) and keys only a
#: write or a second preload creates.
MODEL_KEYS = [f"user{i}" for i in range(12)] + ["x0", "x1", "", "é"]
MODEL_REGIONS = (Region.FRK, Region.IRL, Region.VRG)


def coarse_token(key):
    """One of four tokens: distinct keys share a token all the time."""
    return key_token(key) % 4


MODEL_STEPS = st.one_of(
    st.tuples(st.just("read"), st.integers(0, 2),
              st.sampled_from(MODEL_KEYS)),
    st.tuples(st.just("write"), st.integers(0, 2),
              st.sampled_from(MODEL_KEYS), st.integers(), STAMPS),
    st.tuples(st.just("preload"), st.dictionaries(
        st.sampled_from(MODEL_KEYS), st.integers(), max_size=8)),
    st.tuples(st.just("range"), st.integers(0, 2),
              st.one_of(TOKENS, st.integers(0, 5)),
              st.one_of(TOKENS, st.integers(0, 5))))


class TestBaseRun:
    """A first preload's keys are found by bisecting the token column, and
    only the keys in use enter the key space's dict."""

    def test_a_first_preload_puts_no_key_in_the_dict(self):
        cluster = CassandraCluster(
            SimEnvironment(seed=3), CassandraConfig(),
            nodes=[(f"node{i}", region)
                   for i, region in enumerate(MODEL_REGIONS)])
        dataset = Dataset(50, value_size_bytes=8)
        cluster.preload(dataset.initial_items())
        space, table = cluster.keyspace, cluster.replicas[0].table
        assert space.ids == {} and space.based == len(space) == 50
        assert list(space.tokens) == sorted(space.tokens)
        assert table.get("user7").value == time_zero_value("user7", 8)
        kid = space.ids["user7"]
        assert space.ids == {"user7": kid} and space.keys[kid] == "user7"
        # A key the space does not hold enters nothing.
        assert table.get("user50") is None and space.find("user50") is None
        assert space.ids == {"user7": kid}
        # A write that creates a key gives it the next id, in the dict.
        assert table.apply("new", VersionedValue(1, (1.0, "n", 1)))
        assert space.ids["new"] == 50 and space.based == 50

    def test_an_out_of_order_first_extend_is_no_base_run(self):
        space = KeySpace()
        space.extend(["b", "a"], [20, 10], "ba")
        assert space.based == 0 and space.ids == {"b": 0, "a": 1}

    @settings(deadline=None, max_examples=100)
    @given(equal_tokens=st.booleans(), count=st.integers(1, 12),
           size=st.integers(1, 5),
           steps=st.lists(MODEL_STEPS, max_size=12))
    def test_lookups_match_a_dict_backed_reference(self, equal_tokens, count,
                                                   size, steps):
        """A dataset preload, then any interleaving of reads, writes that
        create keys, a second preload from a dict and range selections —
        with every key's own token, or with four tokens shared by all keys
        — answers ``get``, ``apply``, ``rows_in_range``, ``keys()`` and
        ``len`` as a dict per replica does, and gives every key one id."""
        token_of = coarse_token if equal_tokens else key_token
        with mock.patch.object(storage, "key_token", token_of), \
                mock.patch.object(cluster_module, "key_tokens",
                                  lambda keys: array("Q", map(token_of,
                                                              keys))):
            self._run(token_of, count, size, steps)

    @staticmethod
    def _run(token_of, count, size, steps):
        cluster = CassandraCluster(
            SimEnvironment(seed=3),
            CassandraConfig(replication_factor=2, vnodes_per_node=2),
            nodes=[(f"node{i}", region)
                   for i, region in enumerate(MODEL_REGIONS)])
        tables = [replica.table for replica in cluster.replicas]
        index = {replica.name: at
                 for at, replica in enumerate(cluster.replicas)}
        models = [({}, [0, 0]) for _ in tables]
        space = cluster.keyspace

        def model_apply(at, key, version):
            rows, counters = models[at]
            stored = rows.get(key)
            if stored is not None and not version.timestamp > stored.timestamp:
                counters[1] += 1
                return False
            rows[key] = version
            counters[0] += 1
            return True

        def preload(items):
            cluster.preload(items)
            for key, value in items.items():
                for name in cluster.partitioner.replicas_for_token(
                        token_of(key)):
                    model_apply(index[name], key,
                                VersionedValue(value, PRELOAD_STAMP))

        dataset = Dataset(count, value_size_bytes=size)
        preload(dataset.initial_items())
        assert space.based == count and not space.ids
        created = set(dataset.keys())
        for step in steps:
            kind = step[0]
            if kind == "read":
                _, at, key = step
                assert tables[at].get(key) == models[at][0].get(key)
            elif kind == "write":
                _, at, key, value, stamp = step
                version = VersionedValue(value, stamp)
                assert tables[at].apply(key, version) \
                    == model_apply(at, key, version)
                created.add(key)
            elif kind == "preload":
                preload(step[1])
                created.update(step[1])
            else:
                _, at, start, end = step
                rows = tables[at].rows_in_range(start, end)
                assert [space.keys[kid] for kid in rows] == [
                    key for key in sorted(models[at][0])
                    if token_in_range(token_of(key), start, end)]
            for table, (rows, counters) in zip(tables, models):
                assert len(table) == len(rows)
                assert table.keys() == tuple(sorted(rows))
                assert [table.writes_applied, table.writes_ignored] \
                    == counters
        assert len(space) == len(created)
        ids = {key: space.find(key) for key in MODEL_KEYS}
        assert sorted(ids[key] for key in created) == list(range(len(space)))
        assert all(space.keys[ids[key]] == key for key in created)
        assert all(ids[key] is None for key in set(MODEL_KEYS) - created)
        for table, (rows, _) in zip(tables, models):
            assert [table.get(key) for key in MODEL_KEYS] \
                == [rows.get(key) for key in MODEL_KEYS]
            assert all(table.token(key) == token_of(key) for key in rows)


class TestPartitioner:
    def test_preference_list_size(self):
        partitioner = RingPartitioner(["a", "b", "c"], replication_factor=3)
        assert sorted(partitioner.replicas_for("key1")) == ["a", "b", "c"]

    def test_rf_smaller_than_cluster(self):
        partitioner = RingPartitioner(["a", "b", "c", "d", "e"],
                                      replication_factor=3)
        replicas = partitioner.replicas_for("some-key")
        assert len(replicas) == 3
        assert len(set(replicas)) == 3

    def test_deterministic(self):
        p1 = RingPartitioner(["a", "b", "c"], 2)
        p2 = RingPartitioner(["a", "b", "c"], 2)
        for i in range(50):
            assert p1.replicas_for(f"k{i}") == p2.replicas_for(f"k{i}")

    def test_primary_is_first_replica(self):
        partitioner = RingPartitioner(["a", "b", "c", "d"], 2)
        key = "user42"
        assert partitioner.primary_for(key) == partitioner.replicas_for(key)[0]

    def test_is_replica(self):
        partitioner = RingPartitioner(["a", "b", "c"], 3)
        assert partitioner.is_replica("a", "anything")

    def test_rf_zero_rejected(self):
        with pytest.raises(ValueError):
            RingPartitioner(["a"], 0)

    def test_rf_larger_than_cluster_rejected(self):
        with pytest.raises(ValueError):
            RingPartitioner(["a", "b"], 3)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            RingPartitioner([], 1)

    def test_distribution_roughly_balanced(self):
        partitioner = RingPartitioner([f"n{i}" for i in range(5)],
                                      replication_factor=1, vnodes_per_node=32)
        counts = {f"n{i}": 0 for i in range(5)}
        for i in range(2000):
            counts[partitioner.primary_for(f"key-{i}")] += 1
        for count in counts.values():
            assert count > 100  # no node owns a vanishing share

    @given(st.text(min_size=1, max_size=40))
    def test_replicas_unique_for_any_key(self, key):
        partitioner = RingPartitioner(["a", "b", "c", "d"], 3)
        replicas = partitioner.replicas_for(key)
        assert len(replicas) == len(set(replicas)) == 3

    def test_preference_list_is_immutable(self):
        """The cached entry is a tuple: callers cannot corrupt the cache."""
        partitioner = RingPartitioner(["a", "b", "c", "d"], 2)
        replicas = partitioner.replicas_for("k")
        assert isinstance(replicas, tuple)
        with pytest.raises(TypeError):
            replicas[0] = "evil"
        assert partitioner.replicas_for("k") == replicas

    def test_vnodes_zero_rejected(self):
        with pytest.raises(ValueError):
            RingPartitioner(["a"], 1, vnodes_per_node=0)

    def test_token_in_range_wraps(self):
        assert token_in_range(5, 3, 10)
        assert not token_in_range(10, 3, 10)  # half-open
        assert token_in_range(1, 2**63, 10)   # wrapping range
        assert token_in_range(2**63, 2**63, 10)


KEYS = [f"user{i}" for i in range(300)]


def ring_fingerprint(partitioner):
    digest = hashlib.sha256()
    for token, node in partitioner.token_layout():
        digest.update(f"{token}:{node}\n".encode())
    return digest.hexdigest()


class TestRingEdits:
    def make(self, n=5, rf=3, vnodes=8):
        return RingPartitioner([f"n{i}" for i in range(n)], rf,
                               vnodes_per_node=vnodes)

    def test_add_node_bumps_version_and_layout(self):
        partitioner = self.make()
        before = partitioner.token_layout()
        change = partitioner.add_node("n5")
        assert partitioner.version == 1
        assert partitioner.contains("n5")
        assert "n5" in partitioner.node_names
        after = partitioner.token_layout()
        assert set(after) == set(before) | {
            (token, "n5") for token in node_tokens("n5", 8)}
        assert change.kind == "join" and change.node == "n5"

    def test_layout_independent_of_join_order(self):
        """The determinism contract: membership set ⇒ layout, not history."""
        a = RingPartitioner(["n0", "n1", "n2"], 2)
        a.add_node("n3")
        a.add_node("n4")
        b = RingPartitioner(["n4", "n2", "n0"], 2)
        b.add_node("n1")
        b.add_node("n3")
        assert a.token_layout() == b.token_layout()
        for key in KEYS:
            assert a.replicas_for(key) == b.replicas_for(key)

    def test_same_edit_schedule_same_plans(self):
        """Same schedule ⇒ identical layouts and streaming plans."""
        runs = []
        for _ in range(2):
            partitioner = self.make()
            plans = [partitioner.add_node("n5"),
                     partitioner.decommission("n1"),
                     partitioner.remove_node("n3")]
            runs.append((partitioner.token_layout(),
                         tuple(p.tasks for p in plans)))
        assert runs[0] == runs[1]

    def test_ring_golden_fingerprint(self):
        """Committed layout hash: any change to the token function, the
        vnode naming scheme, or the sort order shows up here."""
        partitioner = self.make(n=4, rf=2, vnodes=4)
        partitioner.add_node("n4", vnodes=2)
        partitioner.decommission("n0")
        assert ring_fingerprint(partitioner) == (
            "21320a591856505fa6434308a5dd9a0ec69a867999c4036419f7aa2f20f5d40b")

    def test_join_streams_exactly_the_gained_ranges(self):
        partitioner = self.make()
        change = partitioner.plan_join("n5")
        partitioner.begin(change)
        partitioner.commit(change)
        for key in KEYS:
            owners = partitioner.replicas_for(key)
            if "n5" not in owners:
                continue
            matching = [task for task in change.tasks
                        if task.target == "n5" and token_in_range(
                            key_token(key), task.start_token, task.end_token)]
            assert len(matching) == 1, key

    def test_no_task_targets_an_existing_owner(self):
        partitioner = self.make()
        change = partitioner.plan_join("n5")
        for task in change.tasks:
            # The target must not already own the range's keys.
            for key in KEYS:
                if not token_in_range(key_token(key), task.start_token,
                                      task.end_token):
                    continue
                assert task.target not in partitioner.replicas_for(key)

    def test_decommission_sources_from_leaving_node(self):
        partitioner = self.make()
        change = partitioner.plan_decommission("n2")
        assert change.tasks  # n2 owned something
        assert all(task.source == "n2" for task in change.tasks)

    def test_remove_sources_from_survivors(self):
        partitioner = self.make()
        change = partitioner.plan_remove("n2")
        assert change.tasks
        assert all(task.source != "n2" for task in change.tasks)

    def test_pending_replicas_exposed_between_begin_and_commit(self):
        partitioner = self.make()
        change = partitioner.plan_join("n5")
        assert partitioner.pending_replicas_for(KEYS[0]) == ()
        partitioner.begin(change)
        gaining = [key for key in KEYS
                   if partitioner.pending_replicas_for(key) == ("n5",)]
        assert gaining  # some keys move to the joiner
        for key in gaining:
            assert "n5" not in partitioner.replicas_for(key)  # not yet serving
        partitioner.commit(change)
        for key in gaining:
            assert "n5" in partitioner.replicas_for(key)
        assert partitioner.pending_replicas_for(KEYS[0]) == ()

    def test_abort_leaves_ring_untouched(self):
        partitioner = self.make()
        before = partitioner.token_layout()
        change = partitioner.plan_join("n5")
        partitioner.begin(change)
        partitioner.abort(change)
        assert partitioner.token_layout() == before
        assert partitioner.version == 0
        assert not partitioner.contains("n5")

    def test_stale_plan_rejected(self):
        partitioner = self.make()
        stale = partitioner.plan_join("n5")
        partitioner.add_node("n6")
        with pytest.raises(ValueError):
            partitioner.begin(stale)

    def test_concurrent_changes_rejected(self):
        partitioner = self.make()
        partitioner.begin(partitioner.plan_join("n5"))
        with pytest.raises(RuntimeError):
            partitioner.plan_join("n6")

    def test_removal_below_rf_rejected(self):
        partitioner = RingPartitioner(["a", "b", "c"], 3)
        with pytest.raises(ValueError):
            partitioner.plan_decommission("a")

    def test_duplicate_join_rejected(self):
        partitioner = self.make()
        with pytest.raises(ValueError):
            partitioner.plan_join("n0")

    def test_remove_unknown_node_rejected(self):
        partitioner = self.make()
        with pytest.raises(ValueError):
            partitioner.plan_remove("ghost")

    def test_cache_invalidated_by_commit(self):
        partitioner = RingPartitioner([f"n{i}" for i in range(6)], 2,
                                      vnodes_per_node=16)
        before = {key: partitioner.replicas_for(key) for key in KEYS}
        partitioner.decommission("n4")
        moved = 0
        for key in KEYS:
            owners = partitioner.replicas_for(key)
            assert "n4" not in owners
            assert len(owners) == len(set(owners)) == 2
            if owners != before[key]:
                moved += 1
        assert moved > 0


@given(st.lists(st.sampled_from(["join", "decommission", "remove"]),
                min_size=1, max_size=6),
       st.integers(min_value=0, max_value=10_000))
def test_every_key_keeps_exactly_rf_replicas_across_any_edit_sequence(
        kinds, key_salt):
    """The RF invariant: any legal rebalance schedule preserves, for every
    key, a preference list of exactly ``replication_factor`` distinct live
    nodes (and never a node that has left the ring)."""
    partitioner = RingPartitioner([f"seed{i}" for i in range(4)], 3,
                                  vnodes_per_node=4)
    keys = [f"k{key_salt}-{i}" for i in range(40)]
    next_id = 0
    for kind in kinds:
        if kind == "join" or len(partitioner.node_names) - 1 < 3:
            partitioner.add_node(f"added{next_id}")
            next_id += 1
        elif kind == "decommission":
            partitioner.decommission(sorted(partitioner.node_names)[0])
        else:
            partitioner.remove_node(sorted(partitioner.node_names)[-1])
        live = set(partitioner.node_names)
        for key in keys:
            owners = partitioner.replicas_for(key)
            assert len(owners) == len(set(owners)) == 3
            assert set(owners) <= live


def walk_owners(ring, token, count):
    """The clockwise walk the slot tables precompute, as the reference: the
    first ``count`` distinct owners from the first ring position past
    ``token``."""
    owners = []
    index = bisect_right([position for position, _ in ring], token) % len(ring)
    while len(owners) < count:
        name = ring[index][1]
        if name not in owners:
            owners.append(name)
        index = (index + 1) % len(ring)
    return tuple(owners)


@given(st.lists(st.sampled_from(["join", "decommission", "remove"]),
                min_size=1, max_size=5),
       st.integers(min_value=0, max_value=10_000))
def test_slot_tables_match_the_ring_walk_across_membership_edits(
        kinds, key_salt):
    """On the serving ring and, between ``begin`` and ``commit``, on the
    pending one, the per-epoch slot tables answer exactly what walking the
    ring answers — for keys and for tokens sitting on a ring boundary."""
    rf = 3
    members = {f"seed{i}": 4 for i in range(4)}
    partitioner = RingPartitioner(list(members), rf, vnodes_per_node=4)
    keys = [f"k{key_salt}-{i}" for i in range(40)]

    def ring_of(vnode_counts):
        return sorted((token, name) for name, count in vnode_counts.items()
                      for token in node_tokens(name, count))

    def check(serving, pending):
        assert partitioner.token_layout() == tuple(serving)
        probes = [key_token(key) for key in keys]
        probes += [token for token, _ in serving + (pending or [])]
        for token in probes:
            assert (partitioner.replicas_for_token(token)
                    == walk_owners(serving, token, rf))
        for key in keys:
            current = walk_owners(serving, key_token(key), rf)
            assert partitioner.replicas_for(key) == current
            assert partitioner.replicas_for(key) is \
                partitioner.replicas_for_token(key_token(key))
            gained = ()
            if pending is not None:
                future = walk_owners(pending, key_token(key), rf)
                gained = tuple(n for n in future if n not in current)
            assert partitioner.pending_replicas_for(key) == gained

    next_id = 0
    for kind in kinds:
        after = dict(members)
        if kind == "join" or len(members) - 1 < rf:
            name, vnodes = f"added{next_id}", 2 + next_id % 3
            next_id += 1
            after[name] = vnodes
            change = partitioner.plan_join(name, vnodes)
        elif kind == "decommission":
            del after[sorted(members)[0]]
            change = partitioner.plan_decommission(sorted(members)[0])
        else:
            del after[sorted(members)[-1]]
            change = partitioner.plan_remove(sorted(members)[-1])
        check(ring_of(members), None)
        partitioner.begin(change)
        check(ring_of(members), ring_of(after))
        partitioner.commit(change)
        members = after
        check(ring_of(members), None)


@given(st.lists(st.text(max_size=12), max_size=30))
def test_key_tokens_is_key_token_per_key(keys):
    """The bulk spelling hashes exactly like the scalar one (any text,
    tokens on both sides of 2**63) into an unsigned 64-bit column."""
    column = key_tokens(keys)
    assert column.typecode == "Q"
    assert column.tolist() == [key_token(key) for key in keys]


@given(st.lists(st.sampled_from(["join", "decommission", "remove"]),
                max_size=4),
       st.integers(min_value=1, max_value=3),
       st.lists(TOKENS, max_size=40))
def test_owner_runs_cut_a_sorted_column_at_the_slot_boundaries(
        kinds, rf, tokens):
    """Every position of a sorted token column falls in exactly one run, the
    runs come in order, and a run's owners are the very tuple a per-token
    lookup answers — for tokens on a ring boundary, below the first and past
    the last one (the wrap to slot 0), across membership edits."""
    partitioner = RingPartitioner([f"seed{i}" for i in range(4)], rf,
                                  vnodes_per_node=3)
    for step, kind in enumerate(kinds):
        if kind == "join" or len(partitioner.node_names) - 1 < max(rf, 2):
            partitioner.add_node(f"added{step}", vnodes=1 + step % 3)
        elif kind == "decommission":
            partitioner.decommission(sorted(partitioner.node_names)[0])
        else:
            partitioner.remove_node(sorted(partitioner.node_names)[-1])
    ring = [token for token, _ in partitioner.token_layout()]
    column = sorted(tokens + ring[::2] + [0, 2**64 - 1])
    covered = 0
    for low, high, owners in partitioner.owner_runs(column):
        assert low == covered and high > low
        covered = high
        for token in column[low:high]:
            assert owners is partitioner.replicas_for_token(token)
    assert covered == len(column)
    assert list(partitioner.owner_runs([])) == []
