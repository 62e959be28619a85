"""Replica storage: one key space per cluster, one held column per replica.

A row is a :class:`VersionedValue` (value and write stamp); :func:`resolve`
is the last-write-wins rule that :meth:`ColumnarTable.apply` inlines.

The replicas of a cluster hold overlapping subsets of one key set — each
key at ``replication_factor`` of them — and everything that is a function
of the key alone is kept once, in the cluster's :class:`KeySpace`: the key
and its ring token by key id, the token order, and a key → id dict for the
keys in use.  A dataset's first preload onto an empty space is the *base
run*: ids in token order, each key a record index, and only the keys an
operation touches in the dict.  A time-zero value is a function of the key
too (:func:`~repro.workloads.records.time_zero_value`), so after a
dataset's preload the key space keeps only the value size; a preload from a
dict keeps its keys and values, by id.  That is
host-side bookkeeping, not simulated state: no replica learns anything
about another's rows through it, so sharing it moves no simulated result.

Each replica's :class:`ColumnarTable` keeps a *held* byte per key id (1:
the replica holds the row), a dict of versions for the rows that have one
of their own, and its counters.  Last-write-wins merge only compares
stamps, so a preloaded row is a set byte and no version until
:meth:`ColumnarTable.get` first reads it and builds its version, its value
derived from the key or listed in the key space: equal versions on two
replicas need not be one object.  Such a row is exported (and streamed) as
the shared :data:`TIME_ZERO` marker, which stands for the preload stamp.

Range streaming runs on key ids, which every table of a cluster shares:
:meth:`ColumnarTable.rows_in_range` selects a task's ids with a bisect over
the token column (or, once ids were assigned out of token order, over its
argsort, :func:`token_order`), :meth:`~ColumnarTable.versions_of` gathers
their versions (an unread row's marker included) and
:meth:`~ColumnarTable.merge` applies them to another table exactly as
applying them row by row would.  A batch's unread rows are sized without
their values: a derived value is ``value_size`` characters long
(:meth:`~ColumnarTable.values_and_unread`).
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, islice, repeat
from operator import attrgetter, gt, is_, is_not, le, not_
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cassandra_sim.partitioner import key_token
from repro.workloads.records import TimeZeroItems, time_zero_value

#: A write timestamp: (simulated time, coordinator name, per-coordinator seq).
#: Tuple comparison gives a total order with deterministic tie-breaking.
Timestamp = Tuple[float, str, int]


@dataclass(frozen=True, slots=True)
class VersionedValue:
    """A value together with the timestamp of the write that produced it."""

    value: Any
    timestamp: Timestamp

    def newer_than(self, other: Optional["VersionedValue"]) -> bool:
        """Last-write-wins: strictly newer timestamp wins."""
        if other is None:
            return True
        return self.timestamp > other.timestamp


def resolve(versions: Iterable[Optional[VersionedValue]]
            ) -> Optional[VersionedValue]:
    """Pick the newest non-missing version among replica responses."""
    newest: Optional[VersionedValue] = None
    for version in versions:
        if version is None:
            continue
        if newest is None or version.newer_than(newest):
            newest = version
    return newest


PRELOAD_STAMP = (0.0, "preload", 0)
#: What a held row with no version of its own (a preloaded row not yet
#: read) is exported and streamed as: its value is listed in the key space,
#: by key id, or derived from the key.
TIME_ZERO = VersionedValue(None, PRELOAD_STAMP)
#: By held byte, the stamp a write must beat on a row with no version:
#: older than any (``()``) if not held, the preload's if held.
_UNREAD_STAMPS = ((), PRELOAD_STAMP)
_value_of = attrgetter("value")
#: A token's top byte within its native 8 bytes, and per token-order bucket
#: the ``bytes.translate`` table mapping a top byte to 1 if it falls in the
#: bucket (its top three bits), else to 0.
_TOP = 7 if sys.byteorder == "little" else 0
_BUCKETS = [bytes(byte >> 5 == bucket for byte in range(256))
            for bucket in range(8)]


def token_order(tokens: "array[int]") -> "array[int]":
    """``sorted(range(len(tokens)), key=tokens.__getitem__)`` as an
    ``array("I")``, sorted a bucket of top token bits at a time: the same
    permutation (equal tokens share a bucket and the sort is stable), with
    an eighth of the ints alive at once and no Python frame per bucket."""
    return array("I", chain.from_iterable(map(
        partial(sorted, key=tokens.__getitem__),
        map(compress, repeat(range(len(tokens))),
            map(tokens.tobytes()[_TOP::8].translate, _BUCKETS)))))


class KeySpace:
    """Every key the replicas of one cluster have held, by dense key id.

    A key's token is a pure function of the key, so it is computed once —
    by whoever routed the row here (``Cluster.preload``, a streaming
    source) or when a write creates the key — and kept in an unsigned
    64-bit column (tokens are the top 64 bits of md5: half of them do not
    fit a signed ``'q'``).  Ids are never reused.

    Token order is tracked as ids are assigned, not rediscovered: ``_order
    is None`` means the token column is non-decreasing, which is how
    ``Cluster.preload`` leaves it (ids assigned in token order) and what a
    stream task then bisects directly.  An id that breaks the order makes
    ``_order`` the token-sorted permutation instead, rebuilt lazily
    whenever its length differs from the id count.

    Ids ``[0, based)`` are the base run, a dataset's records extended in
    token order onto an empty space: ``_records[kid]`` is a base key's
    record index, :meth:`find` reads a record's id from the inverse
    ``_base_ids`` and memoises it in ``ids``.  Every other key (a dict's
    preload, a write's) is listed in ``keys`` and put in ``ids``.  So
    ``ids`` holds the keys in use, and :meth:`keys_of` reads the keys.

    Every table over the space takes its held column from
    :meth:`new_column`, and the space grows each column with the ids it
    assigns, so a table indexes its column by any id without a bounds
    check.

    A row's time-zero value is ``values[kid]`` for an id the list covers
    (a preload from a dict) and ``time_zero_value(key, value_size)`` past
    it (a dataset's preload); ids made by writes have none.
    """

    __slots__ = ("ids", "keys", "tokens", "based", "prefix", "_cut",
                 "_records", "_base_ids", "values", "listed", "value_size",
                 "_order", "_columns")

    def __init__(self) -> None:
        #: key -> key id, for listed keys and base keys found.
        self.ids: Dict[str, int] = {}
        #: The listed keys, by ``kid - based``, and every ring token by id.
        self.keys: List[str] = []
        self.tokens = array("Q")
        #: The base run's length and key prefix (``_cut`` its length).
        self.based, self.prefix, self._cut = 0, "", 0
        self._records, self._base_ids = (), array("I")  # see find
        #: Listed time-zero values, by id; past the list they are derived.
        self.values: List[Any] = []
        #: ``len(values)``, an attribute for the read path.
        self.listed = 0
        #: The size of a derived time-zero value (0 before a dataset's).
        self.value_size = 0
        # None while the token column is in order; otherwise ids sorted by
        # token (the argsort, see ids_in_range).
        self._order: Optional["array[int]"] = None
        self._columns: List[bytearray] = []

    def __len__(self) -> int:
        return len(self.tokens)

    def new_column(self) -> bytearray:
        """A held column holding nothing (a 0 byte per id), grown with
        every new id."""
        column = bytearray(len(self))
        self._columns.append(column)
        return column

    def find(self, key: str) -> Optional[int]:
        """The id of ``key`` (None if none): a base key's is that of the
        record its suffix names, if it is spelt as that record's key is."""
        kid = self.ids.get(key)
        if kid is None and self.based:
            try:
                kid = self._base_ids[int(key[self._cut:])]
            except (ValueError, IndexError):
                return None
            if key != f"{self.prefix}{self._records[kid]}":
                return None
            self.ids[key] = kid
        return kid

    def keys_of(self, ids: Sequence[int]) -> List[str]:
        """The keys of ``ids`` (ascending): a base id's formatted from its
        record index, any other's listed; no Python frame runs per id."""
        cut, based = bisect_left(ids, self.based), self.based
        return list(chain(map(self.prefix.__add__, map(str, map(
            self._records.__getitem__, ids[:cut]))), map(
                self.keys.__getitem__, map((-based).__add__, ids[cut:]))))

    def add(self, key: str, token: Optional[int] = None) -> int:
        """The id of ``key``, assigned now if the key is new, with
        ``token`` (the key's, hashed here when None) as its ring token."""
        kid = self.find(key)
        if kid is None:
            if token is None:
                token = key_token(key)
            tokens = self.tokens
            if tokens and token < tokens[-1]:
                self._order = array("I")  # out of order: argsort on next use
            kid = self.ids[key] = len(tokens)
            self.keys.append(key)
            tokens.append(token)
            for column in self._columns:
                column.append(0)
        return kid

    def intern(self, keys: Sequence[str],
               tokens: Sequence[int]) -> List[int]:
        """The ids of ``keys`` (which may repeat), new keys assigned ids in
        row order with their ``tokens``."""
        ids = list(map(self.ids.get, keys))
        if None in ids:
            for row in [row for row, kid in enumerate(ids) if kid is None]:
                ids[row] = self.add(keys[row], tokens[row])
        return ids

    def extend(self, keys: Sequence[str], tokens: Sequence[int],
               values: Sequence[Any] = (), value_size: int = 0) -> range:
        """Assign ids to ``keys`` in one bulk append: :meth:`intern` for
        keys that are distinct and none of them in the space yet (a preload
        onto keys no write created).  Their time-zero values are
        ``values``, listed by key id, or with ``value_size`` derived from
        each key.  A dataset's records (a :class:`~repro.workloads.records.
        TimeZeroItems`) in token order onto an empty space are the base
        run: no key is listed or put in a dict."""
        first = len(self)
        token_column = self.tokens
        if self._order is None and (
                token_column and tokens and tokens[0] < token_column[-1]
                or not all(map(le, tokens, islice(tokens, 1, None)))):
            self._order = array("I")  # out of order: argsort on next use
        ids = range(first, first + len(keys))
        if first or self._order is not None or type(keys) is not TimeZeroItems:
            self.ids.update(zip(keys, ids))
            self.keys.extend(keys)
            token_column.extend(tokens)
        else:  # the base run, its columns sized exactly
            self.based, self._records = ids.stop, keys.records
            self.prefix, self._cut = keys.prefix, len(keys.prefix)
            self.tokens = array("Q", tokens)
            self._base_ids = array("I", [0]) * ids.stop
            deque(map(self._base_ids.__setitem__, keys.records, ids), 0)
        listed, size = self.values, self.value_size
        if not value_size or size not in (0, value_size):
            # The list grows to cover every id before ``first``: the values
            # derived so far, with ``size`` (an id made by a write has none
            # and gets one it never reads).
            below = range(len(listed), first)
            listed.extend(map(time_zero_value, self.keys_of(below),
                              repeat(size)) if size
                          else repeat(None, len(below)))
        if value_size:
            self.value_size = value_size
        else:
            listed.extend(values)
        self.listed = len(listed)
        for column in self._columns:
            column.extend(bytes(len(keys)))
        return ids

    def ids_in_range(self, start_token: int,
                     end_token: int) -> Sequence[int]:
        """Ids of the keys whose token lies in ``[start_token, end_token)``.

        Same range semantics as :func:`~repro.cassandra_sim.partitioner.
        token_in_range` (wrapping when ``start_token >= end_token``).  In
        token order that is two bisects on the token column; out of it,
        the argsort is rebuilt first (O(n log n)) when ids were added since
        the last call.
        """
        tokens = self.tokens
        order = self._order
        if order is None:
            low = bisect_left(tokens, start_token)
            high = bisect_left(tokens, end_token)
            if start_token < end_token:
                return range(low, high)
            return (array("I", range(low, len(tokens)))
                    + array("I", range(high)))
        if len(order) != len(tokens):
            order = self._order = token_order(tokens)
        low = self._first_at_or_after(start_token)
        high = self._first_at_or_after(end_token)
        if start_token < end_token:
            return order[low:high]
        return order[low:] + order[:high]

    def _first_at_or_after(self, token: int) -> int:
        """Index into the argsort ``_order`` of the first id whose token is
        >= ``token`` (out-of-order spaces only).

        ``bisect_left`` over the permutation with the token column as sort
        key, spelt out: ``bisect``'s ``key=`` needs Python 3.10, and a
        sorted copy of the tokens would cost the argsort build a lookup per
        id to save ~log n lookups per probe.
        """
        order, tokens = self._order, self.tokens
        low, high = 0, len(order)
        while low < high:
            mid = (low + high) // 2
            if tokens[order[mid]] < token:
                low = mid + 1
            else:
                high = mid
        return low


class ColumnarTable:
    """The key-value state one replica holds: which key ids of a
    :class:`KeySpace` (its own one unless a cluster shares one) it holds,
    and the versions of those that have one of their own."""

    __slots__ = ("_space", "_ids", "_held", "_versions",
                 "writes_applied", "writes_ignored")

    def __init__(self, space: Optional[KeySpace] = None) -> None:
        if space is None:
            space = KeySpace()
        self._space = space
        # The space's own dict, bound once, so a read of a key in use that
        # has a version is two dict lookups.
        self._ids = space.ids
        self._held = space.new_column()
        self._versions: Dict[int, VersionedValue] = {}
        self.writes_applied = 0
        self.writes_ignored = 0

    def __len__(self) -> int:
        return self._held.count(1)

    def get(self, key: str) -> Optional[VersionedValue]:
        """The locally stored version of ``key`` (None if absent); a held
        row's first read builds its time-zero version and keeps it."""
        try:
            return self._versions[self._ids[key]]
        except KeyError:  # unread, a base key's first lookup, or not held
            space = self._space
            kid = space.find(key)
            if kid is None or not self._held[kid]:
                return None
            version = self._versions[kid] = VersionedValue(
                time_zero_value(key, space.value_size) if kid >= space.listed
                else space.values[kid], PRELOAD_STAMP)
            return version

    def apply(self, key: str, version: VersionedValue,
              token: Optional[int] = None) -> bool:
        """Apply a write if it is newer than the stored version (LWW).

        Returns True when the write was applied, False when it was stale and
        therefore ignored.  ``token`` is the key's ring token when the
        caller already has it; a key new to the key space is hashed
        otherwise.
        """
        kid = self._ids.get(key)
        if kid is None:
            kid = self._space.add(key, token)
        try:
            stored = self._versions[kid].timestamp
        except KeyError:  # held and never read, or not held: held from now
            stored = _UNREAD_STAMPS[self._held[kid]]
            self._held[kid] = 1
        # VersionedValue.newer_than, inlined (one apply per replicated write).
        if not version.timestamp > stored:
            self.writes_ignored += 1
            return False
        self._versions[kid] = version
        self.writes_applied += 1
        return True

    def keys(self) -> Tuple[str, ...]:
        """All stored keys, sorted — the deterministic streaming scan order."""
        return tuple(sorted(self._space.keys_of(list(compress(range(len(
            self._held)), self._held)))))

    def rows_in_range(self, start_token: int,
                      end_token: int) -> "array[int]":
        """Ids of the stored rows whose token lies in ``[start_token,
        end_token)``, in the sorted-key order of :meth:`keys`, so a stream
        task ships exactly the sequence a filtered full scan would (see
        :meth:`KeySpace.ids_in_range` for the range semantics and cost)."""
        space = self._space
        ids = space.ids_in_range(start_token, end_token)
        held = sorted(compress(ids, map(self._held.__getitem__, ids)))
        keys = space.keys_of(held)
        return array("I", map(held.__getitem__,
                              sorted(range(len(held)), key=keys.__getitem__)))

    def versions_of(self, rows: Sequence[int]) -> List[VersionedValue]:
        """The versions of the rows ``rows`` (ids of stored rows), an
        unread row's :data:`TIME_ZERO` marker included."""
        return list(map(self._versions.get, rows, repeat(TIME_ZERO)))

    def values_and_unread(self, rows: Sequence[int],
                          versions: Sequence[VersionedValue]
                          ) -> Tuple[List[Any], int, int]:
        """What sizes the rows ``rows``, given their exported versions:
        ``(values, unread, size)`` — the values of the rows read or listed,
        and the count of unread rows whose value is derived from the key,
        each ``size`` characters long.  Builds no version, derives no
        value."""
        space = self._space
        marked = list(map(is_, versions, repeat(TIME_ZERO)))
        values = list(map(_value_of, compress(versions, map(not_, marked))))
        unread = marked.count(True)
        if unread and space.listed:
            held = list(filter(space.listed.__gt__, compress(rows, marked)))
            values.extend(map(space.values.__getitem__, held))
            unread -= len(held)
        return values, unread, space.value_size

    def merge(self, ids: Sequence[int],
              versions: Optional[Sequence[VersionedValue]] = None) -> None:
        """Merge rows given by key id, each at its version (``versions``
        None: each at its time-zero version, as a preload stores it, with
        no pass over the rows), just as :meth:`apply` row by row would — rows, counters, an id repeated
        in the batch (then a row at a time, in order) and :data:`TIME_ZERO`
        markers included.  Rows not held here are stored wholesale (every
        run of a first preload, nearly every row streamed to a joiner):
        their held bytes set, the ones with a version put in the dict.
        Only the held rows are compared by LWW."""
        held, stored = self._held, self._versions
        count = len(ids)
        if type(ids) is range:
            current = held[ids.start:ids.stop]
            held[ids.start:ids.stop] = b"\1" * count
        elif len(set(ids)) == count:
            current = bytes(map(held.__getitem__, ids))
            deque(map(held.__setitem__, ids, repeat(1)), 0)
        else:
            for kid, version in zip(ids, versions or repeat(TIME_ZERO)):
                self.merge((kid,), (version,))
            return
        if versions is None:
            versions = repeat(TIME_ZERO)  # read below for held rows only
        else:  # rows not held here (0) that carry a version (True)
            stored.update(compress(zip(ids, versions), map(gt, map(
                is_not, versions, repeat(TIME_ZERO)), current)))
        applied = current.count(0)  # every row not held here is stored
        if applied != count:
            for kid, version in zip(compress(ids, current),
                                    compress(versions, current)):
                if version.timestamp > stored.get(kid, TIME_ZERO).timestamp:
                    if version is TIME_ZERO:
                        del stored[kid]  # a stamp older than the preload's
                    else:
                        stored[kid] = version
                    applied += 1
            self.writes_ignored += count - applied
        self.writes_applied += applied
