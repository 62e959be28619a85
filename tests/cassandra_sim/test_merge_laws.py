"""``ColumnarTable.merge`` obeys the laws of a state-based LWW register
map, on the held-byte and versions-dict representation.

Read repair, range streaming and a stream's re-sent batches are sound
only because merging rows is a join (Almeida et al.'s CRDT survey, in
PAPERS.md): commutative, associative and idempotent on the rows it leaves.
Tables here are built by any mix of preload spans (rows held with no
version of their own), writes and merges, so every batch meets rows held
unread, rows with a version and rows not held; batches carry
:data:`~repro.cassandra_sim.storage.TIME_ZERO` markers, repeat ids and
repeat stamps.  A stamp names one write, as a coordinator's stamps do: a
version's value is a function of its key and stamp, and a version at the
preload stamp is the key's time-zero value, or the marker for it.

Read repair's :func:`~repro.cassandra_sim.storage.resolve` is the same
join over one key's replica responses: whatever their order, repeats and
grouping, it picks the newest.

The bucketed argsort every preload and out-of-order range query uses is
checked against the plain sort it replaces.
"""

from array import array

from hypothesis import given, settings, strategies as st

from repro.cassandra_sim.storage import (PRELOAD_STAMP, TIME_ZERO,
                                         ColumnarTable, KeySpace,
                                         VersionedValue, resolve,
                                         token_order)

KEYS = [f"k{i}" for i in range(8)]
#: Older than, equal to and newer than the preload stamp, colliding often.
STAMPS = st.sampled_from([PRELOAD_STAMP, (0.0, "a-node", 9),
                          (0.0, "preload", 1), (1.0, "n1", 0),
                          (1.0, "n2", 0), (2.5, "n1", 2**62)])
IDS = st.integers(0, len(KEYS) - 1)


def new_space():
    """One key space over ``KEYS``, each with a listed time-zero value."""
    space = KeySpace()
    space.extend(KEYS, range(0, 2**64, 2**64 // len(KEYS)),
                 [f"zero-{key}" for key in KEYS])
    return space


@st.composite
def versions(draw, kid):
    stamp = draw(STAMPS)
    if stamp == PRELOAD_STAMP:
        return draw(st.sampled_from([
            TIME_ZERO, VersionedValue(f"zero-{KEYS[kid]}", PRELOAD_STAMP)]))
    return VersionedValue(("v", kid, stamp), stamp)


@st.composite
def batches(draw):
    """``(ids, versions)``: a range or a list of ids (which may repeat),
    and each row's version — or None, every row at time zero."""
    if draw(st.booleans()):
        low = draw(IDS)
        ids = range(low, draw(st.integers(low, len(KEYS))))
    else:
        ids = draw(st.lists(IDS, max_size=2 * len(KEYS)))
    if draw(st.integers(0, 4)) == 0:
        return ids, None
    return ids, [draw(versions(kid)) for kid in ids]


def merge_into(table, batch):
    ids, batch_versions = batch
    table.merge(ids, batch_versions)


def apply_into(table, batch):
    """``batch`` as row-by-row writes: a marker is the time-zero version
    it stands for."""
    ids, batch_versions = batch
    for kid, version in zip(ids, batch_versions or [TIME_ZERO] * len(ids)):
        if version is TIME_ZERO:
            version = VersionedValue(f"zero-{KEYS[kid]}", PRELOAD_STAMP)
        table.apply(KEYS[kid], version)


def build(space, steps):
    """A table over ``space`` after ``steps``: each a batch merged, or a
    batch applied row by row."""
    table = ColumnarTable(space)
    for by_merge, batch in steps:
        (merge_into if by_merge else apply_into)(table, batch)
    return table


def rows(table):
    """What a reader of ``table`` sees: each held key's version."""
    return {key: table.get(key) for key in table.keys()}


def join(*tables):
    """A fresh table over the first's key space, every table's rows
    merged into it in turn, as a stream batch ships them."""
    joined = ColumnarTable(tables[0]._space)
    for table in tables:
        everything = table.rows_in_range(0, 0)
        joined.merge(everything, table.versions_of(everything))
    return joined


STEPS = st.lists(st.tuples(st.booleans(), batches()), max_size=4)


@settings(deadline=None, max_examples=300)
@given(steps=STEPS, batch=batches())
def test_merge_equals_apply_row_by_row(steps, batch):
    """Onto any table, a merge leaves the rows and counters that applying
    its rows one by one leaves."""
    space = new_space()
    merged, applied = build(space, steps), build(space, steps)
    merge_into(merged, batch)
    apply_into(applied, batch)
    assert rows(merged) == rows(applied)
    assert (merged.writes_applied, merged.writes_ignored) == \
        (applied.writes_applied, applied.writes_ignored)
    assert len(merged) == len(applied)


@settings(deadline=None, max_examples=200)
@given(state=STEPS, first=batches(), second=batches())
def test_merge_is_idempotent_and_batches_commute(state, first, second):
    space = new_space()
    once, twice = build(space, state), build(space, state)
    merge_into(once, first)
    for _ in range(2):
        merge_into(twice, first)
    assert rows(once) == rows(twice)
    forward, backward = build(space, state), build(space, state)
    for table, order in ((forward, (first, second)),
                         (backward, (second, first))):
        for batch in order:
            merge_into(table, batch)
    assert rows(forward) == rows(backward)


@settings(deadline=None, max_examples=200)
@given(left=STEPS, middle=STEPS, right=STEPS)
def test_joining_tables_is_commutative_associative_and_idempotent(
        left, middle, right):
    space = new_space()
    x, y, z = (build(space, steps) for steps in (left, middle, right))
    assert rows(join(x, y)) == rows(join(y, x))
    assert rows(join(join(x, y), z)) == rows(join(x, join(y, z)))
    assert rows(join(x, x)) == rows(join(x)) == rows(x)


#: One key's replica responses: a missing row, or the version a stamp names.
RESPONSES = st.lists(st.one_of(
    st.none(), STAMPS.map(lambda stamp: VersionedValue(("v", stamp), stamp))),
    max_size=10)


def assert_newest(result, responses):
    """``result`` is a response no other response is newer than (None only
    when every replica missed the row).  The laws below hold for picking
    the oldest as well; this is what tells the two apart."""
    present = [version for version in responses if version is not None]
    assert (result is None) == (not present)
    if present:
        assert result in present
        assert not any(version.newer_than(result) for version in present)


@settings(deadline=None, max_examples=300)
@given(responses=RESPONSES, data=st.data())
def test_resolve_ignores_order_and_repeats(responses, data):
    repeats = data.draw(st.lists(st.sampled_from(responses), max_size=10)
                        if responses else st.just([]))
    mixed = data.draw(st.permutations(responses + repeats))
    assert resolve(mixed) == resolve(responses)
    assert_newest(resolve(mixed), responses)


@settings(deadline=None, max_examples=300)
@given(responses=RESPONSES, data=st.data())
def test_resolving_the_resolves_of_a_partition_resolves_the_whole(
        responses, data):
    shuffled = data.draw(st.permutations(responses))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(shuffled)),
                                     max_size=4)))
    bounds = [0, *cuts, len(shuffled)]
    groups = [shuffled[a:b] for a, b in zip(bounds, bounds[1:])]
    assert resolve([resolve(group) for group in groups]) == resolve(responses)
    assert_newest(resolve(responses), responses)


#: Tokens on and around the edges of the top-bits buckets, and the ends of
#: the ring.
EDGES = sorted({max(0, min(2**64 - 1, bucket * 2**61 + delta))
                for bucket in range(9) for delta in (-1, 0, 1)})
TOKEN_LISTS = st.lists(st.one_of(st.sampled_from(EDGES),
                                 st.integers(0, 2**64 - 1)), max_size=200)


@settings(deadline=None, max_examples=300)
@given(tokens=TOKEN_LISTS)
def test_the_bucketed_argsort_is_the_plain_stable_sort(tokens):
    column = array("Q", tokens)
    order = token_order(column)
    assert order.typecode == "I"
    assert list(order) == sorted(range(len(tokens)), key=column.__getitem__)


def test_equal_tokens_keep_id_order_within_and_across_bucket_edges():
    column = array("Q", [2**61, 2**61 - 1, 2**61, 0, 2**64 - 1, 2**61 - 1,
                         2**64 - 1, 0])
    assert list(token_order(column)) == [3, 7, 1, 5, 0, 2, 4, 6]
