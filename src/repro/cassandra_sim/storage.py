"""Per-replica storage engines: last-write-wins versioned tables.

Two interchangeable backends sit behind the same interface:

:class:`LocalTable`
    One ``VersionedValue`` object per row in a dict.  Cheap to build, ideal
    for the small tables most figure experiments use.

:class:`ColumnarTable`
    Column-oriented storage for million-key replicas.  Rows are decomposed
    into parallel columns — a values list, a ``float64`` write-time array,
    an interned writer-id array and an ``int64`` sequence array — so a row
    costs four column slots instead of a ``VersionedValue`` plus a
    three-element timestamp tuple (roughly 180 bytes of object headers per
    key saved at RF3 scale, which is what makes 4M-key rings fit).  LWW
    resolution is *exact*: the column comparison is elementwise-identical
    to the ``(time, writer, seq)`` tuple comparison ``LocalTable`` inherits
    from :meth:`VersionedValue.newer_than`.

Both keep each row's ring token beside it (:class:`_TokenIndexedRows`) and
share the bulk interface range streaming runs on: :meth:`rows_in_range`
selects a task's rows with a bisect over the token column (or, once rows
arrived out of token order, over its argsort), :meth:`export_rows` gathers
them column by column and :meth:`apply_rows` merges such columns into
another table — a wholesale extend of the keys that are new there, exact
LWW row by row for the ones already stored (LWW merge is commutative,
associative and idempotent, so splitting a batch that way never shows).

A row that arrives in bulk costs the bookkeeping no Python object of its
own beyond the key index's dict slot: the positions :meth:`apply_rows`
stores in that index come from one process-wide list of ints
(:data:`_POSITIONS`), so the six replicas of a 400k-key ring share ~250k
int objects (as many as its largest table has rows) instead of owning
1.2M, and the token column is a machine-word array.

Clusters pick the backend automatically at preload/join time (see
``CassandraConfig.columnar_threshold_keys``); the protocol code never knows
which one it is talking to.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import chain, compress, islice
from operator import itemgetter, le, not_
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cassandra_sim.partitioner import key_token
from repro.cassandra_sim.versions import VersionedValue

#: Rows as parallel columns: keys, values, write times, writer names, write
#: sequence numbers, ring tokens — what :meth:`export_rows` returns and
#: :meth:`apply_rows` takes (``table.apply_rows(*other.export_rows(rows))``).
RowColumns = Tuple[Sequence[str], Sequence[object], Sequence[float],
                   Sequence[str], Sequence[int], Sequence[int]]

#: ``_POSITIONS[i] == i``: the row positions every table's key index maps
#: to, one shared int object per position instead of one per row and
#: replica.  Grow-only: it reaches the row count of the largest table built
#: in the process and keeps it — after the 4M-key fig15 cell, ~2M ints
#: (~80 MB with the list).  The contents never change, so sharing them is
#: invisible to every table.
_POSITIONS: List[int] = []


class _TokenIndexedRows:
    """Key → row map plus the per-row ring token, shared by both backends.

    A key's token is a pure function of the key, so it is computed once —
    when the row is created, or earlier by whoever routed the row here
    (``Cluster.preload``, a streaming source) — and kept in an unsigned
    64-bit column (tokens are the top 64 bits of md5: half of them do not
    fit a signed ``'q'``).  Rows are never deleted, so a row's position is
    stable.

    Token order is tracked as rows arrive, not rediscovered: ``_order is
    None`` means the token column is non-decreasing, which is how
    ``Cluster.preload`` leaves every table (token-ordered runs, appended
    in order) and what a stream task then bisects directly.  An append
    that breaks the order — one compare for a single row, a boundary
    compare plus one C-level pass for a batch — makes ``_order`` the
    token-sorted permutation instead, rebuilt lazily whenever its length
    differs from the row count.
    """

    __slots__ = ("_index", "_tokens", "_order", "_keys",
                 "reads", "writes_applied", "writes_ignored")

    def __init__(self) -> None:
        #: key -> row position (insertion order; positions never change).
        self._index: Dict[str, int] = {}
        self._tokens = array("Q")
        # None while the token column is in order; otherwise row positions
        # sorted by token (the argsort, see rows_in_range).
        self._order: Optional["array[int]"] = None
        # The keys by row position, built on first use (see _row_keys).
        self._keys: List[str] = []
        self.reads = 0
        self.writes_applied = 0
        self.writes_ignored = 0

    def contains(self, key: str) -> bool:
        return key in self._index

    def keys(self) -> Tuple[str, ...]:
        """All stored keys, sorted — the deterministic streaming scan order."""
        return tuple(sorted(self._index))

    def token(self, key: str) -> int:
        """The stored ring token of ``key`` (which must be present)."""
        return self._tokens[self._index[key]]

    def rows_in_range(self, start_token: int,
                      end_token: int) -> "array[int]":
        """Positions of the rows whose token lies in ``[start_token, end_token)``.

        Same range semantics as :func:`~repro.cassandra_sim.partitioner.
        token_in_range` (wrapping when ``start_token >= end_token``), in the
        sorted-key order of :meth:`keys`, so a stream task ships exactly the
        sequence a filtered full scan would.  On a token-ordered table that
        is two bisects on the token column, then O(m log m) for ``m`` rows;
        an out-of-order one first rebuilds its argsort (O(n log n)) when
        the key set changed since the last call.
        """
        tokens = self._tokens
        order = self._order
        if order is None:
            low = bisect_left(tokens, start_token)
            high = bisect_left(tokens, end_token)
            if start_token < end_token:
                positions = range(low, high)
            else:
                positions = chain(range(low, len(tokens)), range(high))
        else:
            if len(order) != len(tokens):
                order = self._order = array("I", sorted(
                    range(len(tokens)), key=tokens.__getitem__))
            low = self._first_at_or_after(start_token)
            high = self._first_at_or_after(end_token)
            if start_token < end_token:
                positions = order[low:high]
            else:
                positions = order[low:] + order[:high]
        return array("I", sorted(positions, key=self._row_keys().__getitem__))

    def _row_keys(self) -> List[str]:
        """The key column: ``_index``'s keys by row position.

        Only streaming sources need it, so it is built on first use and
        then topped up with the rows added since — the dict keeps insertion
        order, which is row order, and walks backwards from its newest key.
        """
        keys = self._keys
        missing = len(self._index) - len(keys)
        if missing:
            tail = list(islice(reversed(self._index), missing))
            tail.reverse()
            keys.extend(tail)
        return keys

    def _first_at_or_after(self, token: int) -> int:
        """Index into the argsort ``_order`` of the first row whose token is
        >= ``token`` (out-of-order tables only).

        ``bisect_left`` over the permutation with the token column as sort
        key, spelt out: ``bisect``'s ``key=`` needs Python 3.10, and a
        sorted copy of the tokens would cost the index build a lookup per
        row (+30% measured) to save ~log n lookups per probe.
        """
        order, tokens = self._order, self._tokens
        low, high = 0, len(order)
        while low < high:
            mid = (low + high) // 2
            if tokens[order[mid]] < token:
                low = mid + 1
            else:
                high = mid
        return low

    def apply_rows(self, keys: Sequence[str], values: Sequence[object],
                   times: Sequence[float], writers: Sequence[str],
                   seqs: Sequence[int], tokens: Sequence[int]) -> None:
        """Merge rows given as parallel columns; ``keys`` must not repeat.

        Identical to ``apply(key, VersionedValue(value, (time, writer,
        seq)), token)`` row by row — rows, positions, counters.  Keys not
        stored yet (every key of a preload, nearly every one of a batch
        streamed to a joining node) have nothing to compare against: they
        are appended wholesale, in batch order, which gives them the
        positions the loop would.  Only the stored keys — where a forwarded
        write got there first — go through ``apply`` one by one.  Splitting
        the batch so is exact because LWW merge is commutative, associative
        and idempotent: when a row is merged never shows, and a new row's
        position depends only on the new keys before it.

        A token-ordered batch that starts strictly past a token-ordered
        table's last token (every run of ``Cluster.preload``) skips the
        stored-key pass: a stored key would carry its stored token, which
        is at most that last token, so none can be in the batch.
        """
        if not keys:
            return
        index = self._index
        token_column = self._tokens
        ordered = self._order is None
        if not (ordered
                and (not token_column or tokens[0] > token_column[-1])
                and all(map(le, tokens, islice(tokens, 1, None)))):
            stored = index.keys() & keys
            if stored:
                # LWW: a streamed snapshot never clobbers a newer forwarded
                # write.
                hits = list(map(stored.__contains__, keys))
                for row in compress(range(len(keys)), hits):
                    self.apply(keys[row], VersionedValue(
                        values[row], (times[row], writers[row], seqs[row])),
                        tokens[row])
                fresh = list(map(not_, hits))
                keys, values, times, writers, seqs, tokens = (
                    list(compress(column, fresh)) for column in
                    (keys, values, times, writers, seqs, tokens))
                if not keys:
                    return
            if ordered and (
                    token_column and tokens[0] < token_column[-1]
                    or not all(map(le, tokens, islice(tokens, 1, None)))):
                self._order = array("I")  # out of order: argsort on next use
        first = len(index)
        last = first + len(keys)
        if len(_POSITIONS) < last:
            _POSITIONS.extend(range(len(_POSITIONS), last))
        index.update(zip(keys, _POSITIONS[first:last]))
        token_column.extend(tokens)
        self._extend_versions(values, times, writers, seqs)
        self.writes_applied += len(keys)

    def preload_columns(self, keys: Sequence[str], values: Sequence[object],
                        tokens: Sequence[int]) -> None:
        """Install time-zero rows, the ``Cluster.preload`` bulk path:
        :meth:`apply_rows` with every row stamped ``(0.0, "preload", 0)``."""
        count = len(keys)
        zeros = bytes(8 * count)
        self.apply_rows(keys, values, array("d", zeros),   # float64 0.0
                        ("preload",) * count,
                        array("q", zeros), tokens)         # int64 0

    def __len__(self) -> int:
        return len(self._index)


class LocalTable(_TokenIndexedRows):
    """The key-value state one replica holds locally."""

    __slots__ = ("_versions",)

    def __init__(self) -> None:
        super().__init__()
        self._versions: List[VersionedValue] = []

    def read(self, key: str) -> Optional[VersionedValue]:
        """Return the locally stored version of ``key`` (None if absent)."""
        self.reads += 1
        idx = self._index.get(key)
        if idx is None:
            return None
        return self._versions[idx]

    def apply(self, key: str, version: VersionedValue,
              token: Optional[int] = None) -> bool:
        """Apply a write if it is newer than the stored version (LWW).

        Returns True when the write was applied, False when it was stale and
        therefore ignored.  ``token`` is the key's ring token when the
        caller already has it; a new row hashes the key otherwise.
        """
        idx = self._index.get(key)
        if idx is None:
            if token is None:
                token = key_token(key)
            tokens = self._tokens
            if tokens and token < tokens[-1]:
                self._order = array("I")  # out of order: argsort on next use
            self._index[key] = len(self._versions)
            self._versions.append(version)
            tokens.append(token)
        # VersionedValue.newer_than, inlined (one apply per replicated write).
        elif version.timestamp > self._versions[idx].timestamp:
            self._versions[idx] = version
        else:
            self.writes_ignored += 1
            return False
        self.writes_applied += 1
        return True

    def get(self, key: str) -> Optional[VersionedValue]:
        """Raw access without touching the ``reads`` counter.

        Used by post-run verification, which inspects state without
        modelling a served read.
        """
        idx = self._index.get(key)
        if idx is None:
            return None
        return self._versions[idx]

    def items(self) -> Iterator[Tuple[str, VersionedValue]]:
        """Iterate ``(key, version)`` pairs in sorted key order."""
        for key in sorted(self._index):
            yield key, self._versions[self._index[key]]

    def export_rows(self, rows: Sequence[int]) -> RowColumns:
        """The rows at positions ``rows`` as parallel columns."""
        versions = list(map(self._versions.__getitem__, rows))
        stamps = [version.timestamp for version in versions]
        times, writers, seqs = zip(*stamps) if stamps else ((), (), ())
        return (list(map(self._row_keys().__getitem__, rows)),
                [version.value for version in versions],
                times, writers, seqs,
                list(map(self._tokens.__getitem__, rows)))

    def _extend_versions(self, values, times, writers, seqs) -> None:
        self._versions.extend(
            map(VersionedValue, values, zip(times, writers, seqs)))


class ColumnarTable(_TokenIndexedRows):
    """Column-oriented drop-in for :class:`LocalTable` (million-key rings).

    ``array('d')`` / ``array('q')`` indexing returns native Python floats
    and ints, so reconstructed timestamps compare (and ``repr``) exactly
    like the tuples a :class:`LocalTable` stores — the two backends are
    observationally identical, which the Hypothesis equivalence test in
    ``tests/cassandra_sim/test_storage_partitioner.py`` checks operation by
    operation.
    """

    def __init__(self) -> None:
        super().__init__()
        self._values: List[object] = []
        self._times = array("d")
        self._writer_ids = array("i")
        self._seqs = array("q")
        #: Interned writer names: replicas write under a handful of
        #: coordinator names, so the writer column is a small-int array.
        self._writers: List[str] = []
        self._writer_index: Dict[str, int] = {}

    @classmethod
    def from_table(cls, table: "LocalTable") -> "ColumnarTable":
        """Columnarize an existing table, carrying rows and counters over.

        Rows are copied in token order, so a table columnarized ahead of a
        token-ordered preload keeps its token column in order.
        """
        columnar = cls()
        columnar.apply_rows(*table.export_rows(
            sorted(range(len(table)), key=table._tokens.__getitem__)))
        columnar.reads = table.reads
        columnar.writes_applied = table.writes_applied
        columnar.writes_ignored = table.writes_ignored
        return columnar

    def _writer_id(self, writer: str) -> int:
        wid = self._writer_index.get(writer)
        if wid is None:
            wid = len(self._writers)
            self._writer_index[writer] = wid
            self._writers.append(writer)
        return wid

    def read(self, key: str) -> Optional[VersionedValue]:
        """Return the locally stored version of ``key`` (None if absent)."""
        self.reads += 1
        idx = self._index.get(key)
        if idx is None:
            return None
        return VersionedValue(
            self._values[idx],
            (self._times[idx], self._writers[self._writer_ids[idx]],
             self._seqs[idx]))

    def apply(self, key: str, version: VersionedValue,
              token: Optional[int] = None) -> bool:
        """Apply a write if it is newer than the stored version (LWW).

        ``token`` as in :meth:`LocalTable.apply`.
        """
        idx = self._index.get(key)
        time, writer, seq = version.timestamp
        if idx is None:
            if token is None:
                token = key_token(key)
            tokens = self._tokens
            if tokens and token < tokens[-1]:
                self._order = array("I")  # out of order: argsort on next use
            self._index[key] = len(self._values)
            self._values.append(version.value)
            self._times.append(time)
            self._writer_ids.append(self._writer_id(writer))
            self._seqs.append(seq)
            tokens.append(token)
            self.writes_applied += 1
            return True
        # Elementwise (time, writer, seq) tuple comparison, strict '>' —
        # exactly VersionedValue.newer_than against the stored row.
        stored_time = self._times[idx]
        if time != stored_time:
            newer = time > stored_time
        else:
            stored_writer = self._writers[self._writer_ids[idx]]
            if writer != stored_writer:
                newer = writer > stored_writer
            else:
                newer = seq > self._seqs[idx]
        if newer:
            self._values[idx] = version.value
            self._times[idx] = time
            self._writer_ids[idx] = self._writer_id(writer)
            self._seqs[idx] = seq
            self.writes_applied += 1
            return True
        self.writes_ignored += 1
        return False

    def get(self, key: str) -> Optional[VersionedValue]:
        """Raw access without touching the ``reads`` counter."""
        idx = self._index.get(key)
        if idx is None:
            return None
        return VersionedValue(
            self._values[idx],
            (self._times[idx], self._writers[self._writer_ids[idx]],
             self._seqs[idx]))

    def items(self) -> Iterator[Tuple[str, VersionedValue]]:
        """Iterate ``(key, version)`` pairs in sorted key order."""
        for key in sorted(self._index):
            yield key, self.get(key)

    def export_rows(self, rows: Sequence[int]) -> RowColumns:
        """The rows at positions ``rows`` as parallel columns (lists).

        One ``itemgetter`` per batch gathers every column in C; fewer than
        two rows take ``map``, since ``itemgetter`` of one row returns the
        bare item rather than a tuple.
        """
        if len(rows) > 1:
            gather = itemgetter(*rows)
        else:
            def gather(column):
                return map(column.__getitem__, rows)
        return (list(gather(self._row_keys())),
                list(gather(self._values)),
                list(gather(self._times)),
                list(map(self._writers.__getitem__,
                         gather(self._writer_ids))),
                list(gather(self._seqs)),
                list(gather(self._tokens)))

    def _extend_versions(self, values, times, writers, seqs) -> None:
        self._values.extend(values)
        self._times.extend(times)
        # One writer throughout — every row of a preload, most streamed
        # batches — is a constant column; ``count`` compares by identity.
        if writers.count(writers[0]) == len(writers):
            self._writer_ids.extend(
                array("i", [self._writer_id(writers[0])]) * len(writers))
        else:
            self._writer_ids.extend(map(self._writer_id, writers))
        self._seqs.extend(seqs)
