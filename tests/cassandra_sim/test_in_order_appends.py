"""``merge`` on in-order appends: what the key space and the merge skip.

Keys arriving in token order past the key space's last token keep its
token column in order, so stream tasks bisect it instead of building an
argsort; a batch whose rows the table does not hold yet, each once, is
stored wholesale instead of merged row by row.  Every run of
``Cluster.preload`` takes both paths.  The property below checks them
against applying the same rows one by one, on tables and batches built to
sit on both sides of them: appends past the last token, overlapping
batches, a batch whose first token equals the last one, and a second
preload of rows already stored.
"""

from hypothesis import given, strategies as st

from repro.cassandra_sim.partitioner import key_token
from repro.cassandra_sim.storage import ColumnarTable, KeySpace, VersionedValue
from table_reads import rows_of

KEYS = [f"key{i}" for i in range(16)]
#: Ring tokens for the keys: a few shared values make token collisions
#: between distinct keys (and so equal first/last tokens) common.
TOKEN_MAPS = st.lists(
    st.one_of(st.integers(0, 2**64 - 1),
              st.sampled_from([0, 7, 2**63, 2**64 - 1])),
    min_size=len(KEYS), max_size=len(KEYS)).map(
        lambda tokens: dict(zip(KEYS, tokens)))
STAMPS = st.tuples(st.sampled_from([0.0, 1.0, 2.5]),
                   st.sampled_from(["n1", "n2", "preload"]),
                   st.sampled_from([0, 1, 2**62]))
PRELOAD = (0.0, "preload", 0)


def apply_one_by_one(table, rows, tokens):
    for key, value, stamp in rows:
        table.apply(key, VersionedValue(value, stamp), tokens[key])


def merge_as_columns(table, rows, tokens):
    ids = table._space.intern([key for key, _, _ in rows],
                              [tokens[key] for key, _, _ in rows])
    table.merge(ids, [VersionedValue(value, stamp) for _, value, stamp in rows])


def assert_same(bulk, reference):
    """Rows, key ids, token order, counters and every LWW outcome."""
    assert rows_of(bulk) == rows_of(reference)
    assert bulk._space.keys == reference._space.keys  # ids are positions
    assert bulk._space.tokens == reference._space.tokens
    assert (bulk._space._order is None) == (reference._space._order is None)
    for counter in ("writes_applied", "writes_ignored"):
        assert getattr(bulk, counter) == getattr(reference, counter), counter


@st.composite
def batches(draw, table, tokens):
    """One batch of distinct keys for ``table``, of a drawn kind."""
    stored = [key for key in KEYS if key in table.keys()]
    fresh = [key for key in KEYS if key not in table.keys()]
    token_column = table._space.tokens
    last = token_column[-1] if token_column else None
    by_token = sorted(KEYS, key=tokens.__getitem__)
    kind = draw(st.sampled_from(["append", "overlap", "boundary",
                                 "preload-again"]))
    if kind == "append":
        # Past the last token: only fresh keys on a token-ordered table,
        # stored ones too on a table that is not.
        keys = [key for key in by_token if last is None or tokens[key] > last]
        keys = keys[:draw(st.integers(0, len(keys)))]
    elif kind == "overlap":
        keys = draw(st.lists(st.sampled_from(KEYS), unique=True))
        if draw(st.booleans()):
            keys.sort(key=tokens.__getitem__)
    elif kind == "boundary":
        # First token equal to the table's last: the stored row holding it,
        # or a fresh key that collides with it, then anything above it.
        heads = [key for key in KEYS if tokens[key] == last]
        if not heads:
            return []
        head = draw(st.sampled_from(heads))
        tail = [key for key in by_token if key != head and key in fresh
                and tokens[key] >= last]
        keys = [head] + tail[:draw(st.integers(0, len(tail)))]
    else:
        keys = sorted(stored, key=tokens.__getitem__)
        return [(key, f"again-{key}", PRELOAD) for key in keys]
    return [(key, draw(st.integers()), draw(STAMPS)) for key in keys]


@given(tokens=TOKEN_MAPS, data=st.data())
def test_merge_equals_row_by_row_apply(tokens, data):
    bulk, reference = ColumnarTable(), ColumnarTable()
    rows = data.draw(st.lists(
        st.tuples(st.sampled_from(KEYS), st.integers(), STAMPS),
        unique_by=lambda row: row[0]))
    if data.draw(st.booleans()):  # as a preload leaves it: token-ordered
        rows.sort(key=lambda row: tokens[row[0]])
    apply_one_by_one(bulk, rows, tokens)
    apply_one_by_one(reference, rows, tokens)
    for _ in range(data.draw(st.integers(1, 4))):
        batch = data.draw(batches(bulk, tokens))
        merge_as_columns(bulk, batch, tokens)
        apply_one_by_one(reference, batch, tokens)
        assert_same(bulk, reference)


def test_only_keys_before_the_last_token_make_an_argsort():
    space = KeySpace()
    # A first run is a base run, found by the keys' own tokens.
    keys = sorted(KEYS, key=key_token)
    tokens = {key: key_token(key) for key in keys}
    for run in (keys[:4], keys[4:9]):  # a preload: token-ordered runs
        space.extend(run, [tokens[key] for key in run], run)
    assert space._order is None
    # Equal to the last token is still in order, and so is a key seen
    # before, wherever its token lies.
    assert space.add("twin", tokens[keys[8]]) == 9
    assert space.intern([keys[0], "twin"], [0, 0]) == [0, 9]
    assert space._order is None
    assert list(space.ids_in_range(tokens[keys[2]], tokens[keys[5]])) \
        == [2, 3, 4]
    # A run that is out of order within itself breaks it...
    space.extend(keys[13:11:-1], [tokens[key] for key in keys[13:11:-1]],
                 keys[13:11:-1])
    assert space._order is not None
    # ...and the argsort answers as the bisect did, rebuilt on demand.
    assert list(space.ids_in_range(tokens[keys[2]], tokens[keys[5]])) \
        == [2, 3, 4]
    assert list(space.ids_in_range(tokens[keys[11]], 0)) == [11, 10]
    assert len(space._order) == len(space)
    # So does a single key below the last token.
    ordered = KeySpace()
    ordered.extend(keys[4:6], [tokens[key] for key in keys[4:6]], keys[4:6])
    ordered.add(keys[0], tokens[keys[0]])
    assert ordered._order is not None
    assert list(ordered.ids_in_range(0, 2**64 - 1)) == [2, 0, 1]
