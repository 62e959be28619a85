"""``apply_rows`` on in-order appends: the stored-key pass it skips.

A token-ordered batch whose first token is strictly above a token-ordered
table's last token cannot hold a stored key (a stored key carries its
stored token), so ``apply_rows`` appends it without intersecting the key
index with the batch — every run of ``Cluster.preload`` takes that path.
The property below checks the shortcut against applying the same rows one
by one, on tables and batches built to sit on both sides of it: appends
past the last token, overlapping batches, a batch whose first token equals
the last one, and a second preload of rows already stored.
"""

import pytest
from hypothesis import given, strategies as st

from repro.cassandra_sim.storage import ColumnarTable, LocalTable
from repro.cassandra_sim.versions import VersionedValue

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


def apply_as_columns(table, rows, tokens):
    table.apply_rows([key for key, _, _ in rows],
                     [value for _, value, _ in rows],
                     [stamp[0] for _, _, stamp in rows],
                     [stamp[1] for _, _, stamp in rows],
                     [stamp[2] for _, _, stamp in rows],
                     [tokens[key] for key, _, _ in rows])


def assert_same(bulk, reference):
    """Rows, positions, token order, counters and every LWW outcome."""
    assert list(bulk.items()) == list(reference.items())
    assert dict(bulk._index) == dict(reference._index)
    assert list(bulk._tokens) == list(reference._tokens)
    assert bulk._order == reference._order
    for counter in ("reads", "writes_applied", "writes_ignored"):
        assert getattr(bulk, counter) == getattr(reference, counter), counter


@st.composite
def batches(draw, table, tokens):
    """One batch of distinct keys for ``table``, of a drawn kind."""
    stored = [key for key in KEYS if table.contains(key)]
    fresh = [key for key in KEYS if not table.contains(key)]
    last = table._tokens[-1] if len(table) else None
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


@pytest.mark.parametrize("table_type", [LocalTable, ColumnarTable])
@given(tokens=TOKEN_MAPS, data=st.data())
def test_apply_rows_equals_row_by_row_apply(table_type, tokens, data):
    bulk, reference = table_type(), table_type()
    rows = data.draw(st.lists(
        st.tuples(st.sampled_from(KEYS), st.integers(), STAMPS),
        unique_by=lambda row: row[0]))
    if data.draw(st.booleans()):  # as a preload leaves it: token-ordered
        rows.sort(key=lambda row: tokens[row[0]])
    apply_one_by_one(bulk, rows, tokens)
    apply_one_by_one(reference, rows, tokens)
    for _ in range(data.draw(st.integers(1, 4))):
        batch = data.draw(batches(bulk, tokens))
        apply_as_columns(bulk, batch, tokens)
        apply_one_by_one(reference, batch, tokens)
        assert_same(bulk, reference)


class _CountingIndex(dict):
    """A key index that counts the stored-key passes made over it."""

    passes = 0

    def keys(self):
        self.passes += 1
        return super().keys()


@pytest.mark.parametrize("table_type", [LocalTable, ColumnarTable])
def test_only_batches_past_the_last_token_skip_the_stored_key_pass(
        table_type):
    table = table_type()
    table._index = index = _CountingIndex()
    tokens = {key: 10 * number for number, key in enumerate(KEYS)}
    for run in (KEYS[:4], KEYS[4:9]):  # a preload: token-ordered runs
        table.preload_columns(run, run, [tokens[key] for key in run])
    assert index.passes == 0 and table._order is None
    # The first token equals the last one: that row may be stored.
    table.preload_columns(KEYS[8:12], KEYS[8:12],
                          [tokens[key] for key in KEYS[8:12]])
    assert index.passes == 1 and len(table) == 12
    assert table.writes_ignored == 1
    # Out of token order: the batch's first token proves nothing.
    table.preload_columns(KEYS[13:11:-1], KEYS[13:11:-1],
                          [tokens[key] for key in KEYS[13:11:-1]])
    assert index.passes == 2 and table._order is not None
    # And once the table is out of order, neither does its last token.
    table.preload_columns(KEYS[14:], KEYS[14:],
                          [tokens[key] for key in KEYS[14:]])
    assert index.passes == 3 and len(table) == len(KEYS)
