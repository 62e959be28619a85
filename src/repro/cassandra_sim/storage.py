"""Replica storage: one key space per cluster, one versions column per replica.

A row is a :class:`VersionedValue` (value and write stamp); :func:`resolve`
is the last-write-wins rule that :meth:`ColumnarTable.apply` inlines.

The replicas of a cluster hold overlapping subsets of one key set — each
key at ``replication_factor`` of them — and everything that is a function
of the key alone is kept once, in the cluster's :class:`KeySpace`: the key
and its ring token by key id, the token order, and a key → id dict for the
keys in use.  The first bulk load onto an empty space (every preload a
cluster is built with) is the *base run*: its ids are in token order, so a
key of it is found by bisecting the token column on the key's token, and
only the keys an operation touches enter the dict.  A time-zero value is a
function of the key too (:func:`~repro.workloads.records.
time_zero_value`), so after a dataset's preload the key space keeps only
the value size; a preload from a dict keeps its values, by id.  That is
host-side bookkeeping, not simulated state: no replica learns anything
about another's rows through it, so sharing it moves no simulated result.

Each replica's :class:`ColumnarTable` keeps only its version of each key
id — a list in which ``None`` means "not held" — and its counters.
Last-write-wins merge only compares stamps, so a preloaded row holds one
shared :data:`TIME_ZERO` (the preload stamp) until :meth:`ColumnarTable.
get` first reads it and builds its own version, its value derived from the
key or listed in the key space: equal versions on two replicas need not be
one object.

Range streaming runs on key ids, which every table of a cluster shares:
:meth:`ColumnarTable.rows_in_range` selects a task's ids with a bisect over
the token column (or, once ids were assigned out of token order, over its
argsort), :meth:`~ColumnarTable.versions_of` gathers their versions (an
unread row's marker included) and :meth:`~ColumnarTable.merge` applies
them to another table exactly as applying them row by row would.  A
batch's unread rows are sized without their values: a derived value is
``value_size`` characters long (:meth:`~ColumnarTable.values_and_unread`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import compress, islice, repeat
from operator import attrgetter, is_, is_not, le, not_
from typing import (Any, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.cassandra_sim.partitioner import key_token
from repro.workloads.records import time_zero_value

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
#: What every preloaded row holds until it is first read (its value is
#: listed in the key space, by key id, or derived from the key).
TIME_ZERO = VersionedValue(None, PRELOAD_STAMP)
_value_of = attrgetter("value")


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

    Ids ``[0, based)`` are the base run: the first :meth:`extend` onto an
    empty space, in token order.  Their keys are not put in ``ids``;
    :meth:`find` bisects the base's token column on the key's own
    :func:`~repro.cassandra_sim.partitioner.key_token`, scans the ids of
    equal tokens for the key, and memoises what it finds in ``ids``.
    Every other key goes into ``ids`` when its id is assigned.  So ``ids``
    holds the keys in use, not the key space.  A token a caller passes
    with a key is stored for a new id and never looked up by, so no token
    can give a base key a second id; the one token column the base lookup
    trusts is the base run's own, which :meth:`extend` takes as given
    (``Cluster.preload`` hashes every key it loads).

    Every table over the space takes its versions column from
    :meth:`new_column`, and the space grows each column with the ids it
    assigns, so a table indexes its column by any id without a bounds
    check.

    A row's time-zero value is ``values[kid]`` for an id the list covers
    (a preload from a dict) and ``time_zero_value(keys[kid], value_size)``
    past it (a dataset's preload); ids made by writes have none.
    """

    __slots__ = ("ids", "keys", "tokens", "based", "values", "listed",
                 "value_size", "_order", "_columns")

    def __init__(self) -> None:
        #: key -> key id, for keys past the base run and base keys found.
        self.ids: Dict[str, int] = {}
        #: The key and its ring token, by id.
        self.keys: List[str] = []
        self.tokens = array("Q")
        #: The length of the base run (ids in token order, found by bisect).
        self.based = 0
        #: Listed time-zero values, by id; past the list they are derived.
        self.values: List[Any] = []
        #: ``len(values)``, an attribute for the read path.
        self.listed = 0
        #: The size of a derived time-zero value (0 before a dataset's).
        self.value_size = 0
        # None while the token column is in order; otherwise ids sorted by
        # token (the argsort, see ids_in_range).
        self._order: Optional["array[int]"] = None
        self._columns: List[List[Optional[VersionedValue]]] = []

    def __len__(self) -> int:
        return len(self.keys)

    def new_column(self) -> List[Optional[VersionedValue]]:
        """A versions column holding nothing, grown with every new id."""
        column: List[Optional[VersionedValue]] = [None] * len(self.keys)
        self._columns.append(column)
        return column

    def find(self, key: str) -> Optional[int]:
        """The id of ``key`` (None if the space has none)."""
        kid = self.ids.get(key)
        if kid is None and self.based:
            tokens, keys, based = self.tokens, self.keys, self.based
            token = key_token(key)
            at = bisect_left(tokens, token, 0, based)
            while at < based and tokens[at] == token:
                if keys[at] == key:
                    kid = self.ids[key] = at
                    break
                at += 1
        return kid

    def isdisjoint(self, keys: Sequence[str]) -> bool:
        """Whether none of ``keys`` has an id."""
        return all(map(is_, map(self.find, keys), repeat(None)))

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
            kid = self.ids[key] = len(self.keys)
            self.keys.append(key)
            tokens.append(token)
            for column in self._columns:
                column.append(None)
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
        each key.  Onto an empty space, keys in token order are the base
        run: they enter no dict, and :meth:`find` bisects ``tokens`` for
        them, so these must be the keys' own tokens."""
        first = len(self.keys)
        token_column = self.tokens
        if self._order is None and (
                token_column and tokens and tokens[0] < token_column[-1]
                or not all(map(le, tokens, islice(tokens, 1, None)))):
            self._order = array("I")  # out of order: argsort on next use
        ids = range(first, first + len(keys))
        if first or self._order is not None:
            self.ids.update(zip(keys, ids))
        else:
            self.based = len(keys)
        self.keys.extend(keys)
        token_column.extend(tokens)
        listed, size = self.values, self.value_size
        if not value_size or size not in (0, value_size):
            # The list grows to cover every id before ``first``: the values
            # derived so far, with ``size`` (an id made by a write has none
            # and gets one it never reads).
            below = self.keys[len(listed):first]
            listed.extend(map(time_zero_value, below, repeat(size)) if size
                          else repeat(None, len(below)))
        if value_size:
            self.value_size = value_size
        else:
            listed.extend(values)
        self.listed = len(listed)
        for column in self._columns:
            column.extend(repeat(None, len(keys)))
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
            order = self._order = array("I", sorted(
                range(len(tokens)), key=tokens.__getitem__))
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
    """The key-value state one replica holds: its version of each key id
    of a :class:`KeySpace` (its own one unless a cluster shares one)."""

    __slots__ = ("_space", "_ids", "_versions", "_held",
                 "writes_applied", "writes_ignored")

    def __init__(self, space: Optional[KeySpace] = None) -> None:
        if space is None:
            space = KeySpace()
        self._space = space
        # The space's own dict and this table's column: bound once, so a
        # read of a key in use is one dict lookup and one list index.
        self._ids = space.ids
        self._versions = space.new_column()
        self._held = 0
        self.writes_applied = 0
        self.writes_ignored = 0

    def __len__(self) -> int:
        return self._held

    def get(self, key: str) -> Optional[VersionedValue]:
        """The locally stored version of ``key`` (None if absent); a
        preloaded row's first read replaces its :data:`TIME_ZERO` with a
        version of its own."""
        try:
            version = self._versions[self._ids[key]]
        except KeyError:
            kid = self._space.find(key)  # a base key's first lookup
            if kid is None:
                return None
            version = self._versions[kid]
        if version is TIME_ZERO:
            kid = self._ids[key]
            space = self._space
            version = self._versions[kid] = VersionedValue(
                time_zero_value(key, space.value_size) if kid >= space.listed
                else space.values[kid], PRELOAD_STAMP)
        return version

    def contains(self, key: str) -> bool:
        return self.get(key) is not None

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
        stored = self._versions[kid]
        if stored is None:
            self._held += 1
        # VersionedValue.newer_than, inlined (one apply per replicated write).
        elif not version.timestamp > stored.timestamp:
            self.writes_ignored += 1
            return False
        self._versions[kid] = version
        self.writes_applied += 1
        return True

    def keys(self) -> Tuple[str, ...]:
        """All stored keys, sorted — the deterministic streaming scan order."""
        return tuple(sorted(compress(
            self._space.keys, map(is_not, self._versions, repeat(None)))))

    def items(self) -> Iterator[Tuple[str, VersionedValue]]:
        """Iterate ``(key, version)`` pairs in sorted key order."""
        for key in self.keys():
            yield key, self.get(key)

    def token(self, key: str) -> int:
        """The ring token of ``key`` (which must be stored here)."""
        if self.get(key) is None:
            raise KeyError(key)
        return self._space.tokens[self._ids[key]]

    def rows_in_range(self, start_token: int,
                      end_token: int) -> "array[int]":
        """Ids of the stored rows whose token lies in ``[start_token,
        end_token)``, in the sorted-key order of :meth:`keys`, so a stream
        task ships exactly the sequence a filtered full scan would (see
        :meth:`KeySpace.ids_in_range` for the range semantics and cost)."""
        space = self._space
        ids = space.ids_in_range(start_token, end_token)
        held = compress(ids, map(is_not, map(self._versions.__getitem__, ids),
                                 repeat(None)))
        return array("I", sorted(held, key=space.keys.__getitem__))

    def versions_of(self, rows: Sequence[int]) -> List[VersionedValue]:
        """The versions of the rows ``rows`` (ids of stored rows), an
        unread row's marker included."""
        return list(map(self._versions.__getitem__, rows))

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
              versions: Sequence[VersionedValue]) -> None:
        """Merge rows given by key id: identical to :meth:`apply` row by
        row — rows, counters — an id repeated in the batch included.

        Rows this table does not hold have nothing to compare against and
        are stored wholesale — every run of a first preload, nearly every
        row streamed to a joining node; only the held rows are compared by
        LWW.  A batch that names an id twice goes row by row, in order.
        """
        stored = self._versions
        count = len(ids)
        if type(ids) is range:
            current = stored[ids.start:ids.stop]
        elif len(set(ids)) == count:
            current = list(map(stored.__getitem__, ids))
        else:
            for kid, version in zip(ids, versions):
                old = stored[kid]
                if old is None:
                    self._held += 1
                elif not version.timestamp > old.timestamp:
                    self.writes_ignored += 1
                    continue
                stored[kid] = version
                self.writes_applied += 1
            return
        unheld = current.count(None)
        if unheld == count:
            if type(ids) is range:
                stored[ids.start:ids.stop] = versions
            else:
                deque(map(stored.__setitem__, ids, versions), 0)
        else:
            held = list(map(is_not, current, repeat(None)))
            if unheld:
                fresh = list(map(not_, held))
                deque(map(stored.__setitem__, compress(ids, fresh),
                          compress(versions, fresh)), 0)
            for kid, version, old in zip(compress(ids, held),
                                         compress(versions, held),
                                         compress(current, held)):
                if version.timestamp > old.timestamp:
                    stored[kid] = version
                else:
                    count -= 1
            self.writes_ignored += len(current) - count
        self._held += unheld
        self.writes_applied += count
