"""Dataset generation: YCSB-style records.

YCSB stores records named ``user0 .. userN`` with fixed-size values; the
divergence experiments use a deliberately small dataset (1 K records) so
that read activity concentrates on a hot set.
"""

from __future__ import annotations

import random
import string
from array import array
from collections.abc import ItemsView, Mapping, Sequence
from itertools import repeat
from operator import add, mul
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.workloads import fastrand

_PRINTABLE = string.ascii_letters + string.digits

#: Value chunks ramp 16 → 256 so short runs waste few precomputed values
#: while long runs amortize the chunk overhead.
_VALUE_CHUNK_MAX = 256

#: Key-string caching is capped so million-key datasets don't pin ~60 MB of
#: interned key strings; above the cap keys are formatted on demand.
_KEY_CACHE_MAX = 1 << 18

#: Seed of the shared initial-value character stream.  Initial values are a
#: pure function of the record index: value ``i`` is characters
#: ``[i * size, (i + 1) * size)`` of one deterministic printable stream, so
#: ``initial_value(i)`` agrees across dataset sizes and chunking — like the
#: per-record generator scheme it replaces — but the characters are drawn
#: in bulk instead of seeding a fresh Mersenne Twister per record (which
#: dominated million-key preload wall time).
_INITIAL_VALUE_SEED = 0x1CC2_05D1

#: Records per draw of the initial-value text, which a fill joins (holding
#: the text twice meanwhile).  A draw holds about 7 bytes per character
#: (the ``randbytes`` integer and bytes, the sliced bytes, the string), so
#: the chunk sets its transient: 2.8 MB at 4,096 values of 100 characters,
#: not ~270 MB for 400k keys; 16,384 values and more cost 18.5 ns per
#: character instead of 14.3 (they leave the cache).
_INITIAL_CHUNK = 1 << 12


def check_positive_int(name: str, value: object) -> None:
    """The rule for a count or a size: a ``ValueError`` naming ``name``
    unless ``value`` is a positive int."""
    if not isinstance(value, int) or not value >= 1:
        raise ValueError(f"{name} must be a positive int: {value!r}")


def make_value(rng: random.Random, size_bytes: int = 100) -> str:
    """A random printable string of ``size_bytes`` characters:
    ``"".join(rng.choice(_PRINTABLE) for _ in range(size_bytes))``, drawn in
    bulk by :func:`repro.workloads.fastrand.chars` (the same string, and the
    generator left in the same state)."""
    check_positive_int("size_bytes", size_bytes)
    return fastrand.chars(rng, size_bytes, _PRINTABLE)


class TextColumn(Sequence):
    """Read-only values cut from one text when read: value ``i`` is the
    ``size`` characters at ``rows[i] * size``; :meth:`take` slices in C."""

    __slots__ = ("_text", "_size", "_rows")

    def __init__(self, text: str, size: int, rows: Sequence[int]) -> None:
        self._text, self._size, self._rows = text, size, rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i: int) -> str:
        start = self._rows[i] * self._size
        return self._text[start:start + self._size]

    def take(self, ids: Iterable[int]) -> List[str]:
        """``[self[i] for i in ids]``."""
        size = self._size
        starts = list(map(mul, map(self._rows.__getitem__, ids), repeat(size)))
        return list(map(self._text.__getitem__,
                        map(slice, starts, map(add, starts, repeat(size)))))

    def permuted(self, order: Iterable[int]) -> "TextColumn":
        """Value ``j`` is this column's ``order[j]`` (4 bytes a value)."""
        rows = self._rows
        if rows != range(len(rows)):  # not the identity
            order = map(rows.__getitem__, order)
        return TextColumn(self._text, self._size, array("I", order))


class ColumnMapping(Mapping):
    """``keys[i]`` → ``values[i]``, read-only, over two columns of one
    length.  Iterating it, its items or ``values()`` (the column itself)
    walks columns; a lookup by key builds a key → index dict first."""

    def __init__(self, keys: List[str], values: Sequence[object]) -> None:
        self._keys, self._values = keys, values
        self._index: Optional[Dict[str, int]] = None

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[str]:
        return iter(self._keys)

    def __getitem__(self, key: str) -> object:
        if self._index is None:
            self._index = dict(zip(self._keys, range(len(self._keys))))
        return self._values[self._index[key]]

    def values(self) -> Sequence[object]:  # type: ignore[override]
        return self._values

    def items(self) -> ItemsView:
        return _ColumnItems(self)


class _ColumnItems(ItemsView):
    def __iter__(self) -> Iterator[Tuple[str, object]]:
        return zip(self._mapping._keys, self._mapping._values)


class Dataset:
    """A named collection of YCSB records."""

    def __init__(self, record_count: int = 1000, value_size_bytes: int = 100,
                 key_prefix: str = "user", seed: int = 0) -> None:
        check_positive_int("record_count", record_count)
        check_positive_int("value_size_bytes", value_size_bytes)
        self.record_count = record_count
        self.value_size_bytes = value_size_bytes
        self.key_prefix = key_prefix
        self._rng = random.Random(seed)
        self._value_buf: List[str] = []
        self._value_pos = 0
        self._value_chunk = 16
        self._key_cache: Optional[List[str]] = None
        self._initial_rng = random.Random(_INITIAL_VALUE_SEED)
        self._initial_text = ""

    def key(self, index: int) -> str:
        """The key of record ``index``."""
        if not 0 <= index < self.record_count:
            raise IndexError(f"record index out of range: {index}")
        return f"{self.key_prefix}{index}"

    def keys(self) -> List[str]:
        prefix = self.key_prefix
        return [f"{prefix}{i}" for i in range(self.record_count)]

    def cached_keys(self) -> Optional[List[str]]:
        """All key strings, cached for hot-path lookups by index.

        Returns ``None`` above ``_KEY_CACHE_MAX`` records (million-key
        datasets format keys on demand instead of pinning the strings).
        """
        if self.record_count > _KEY_CACHE_MAX:
            return None
        if self._key_cache is None:
            self._key_cache = self.keys()
        return self._key_cache

    def initial_value(self, index: int) -> str:
        """A deterministic initial value for record ``index``.

        Values are sliced from the shared index-ordered character stream
        (see ``_INITIAL_VALUE_SEED``): independent of the dataset seed and
        of ``record_count``, and drawn in bulk chunks into one text so
        million-key preloads are not bounded by value generation.
        """
        if not 0 <= index < self.record_count:
            raise IndexError(f"record index out of range: {index}")
        self._fill_initial_values(index + 1)
        size = self.value_size_bytes
        return self._initial_text[index * size:(index + 1) * size]

    def _fill_initial_values(self, count: int) -> None:
        """Draw the text to ``count`` values or more: at least doubled (up
        to ``record_count``), so reading upward copies it O(log n) times."""
        size = self.value_size_bytes
        have = len(self._initial_text) // size
        if count <= have:
            return
        want = min(max(count, 2 * have, _VALUE_CHUNK_MAX), self.record_count)
        rng, parts = self._initial_rng, [self._initial_text]
        for low in range(have, want, _INITIAL_CHUNK):
            drawn = min(_INITIAL_CHUNK, want - low)
            parts.append(fastrand.chars(rng, drawn * size, _PRINTABLE))
        self._initial_text = "".join(parts)

    def initial_items(self) -> ColumnMapping:
        """Key → value mapping used to preload a cluster: a
        :class:`ColumnMapping` over the keys and a :class:`TextColumn` over
        the initial-value text, which slices a value when it is read."""
        self._fill_initial_values(self.record_count)
        return ColumnMapping(self.keys(), TextColumn(
            self._initial_text, self.value_size_bytes, range(self.record_count)))

    def random_value(self) -> str:
        """A fresh value for an update operation.

        Values are drawn in chunks by :func:`repro.workloads.fastrand.chars`,
        which reproduces the per-draw ``make_value`` sequence bit-for-bit
        (same strings in the same order for a given seed) and leaves the
        private value rng where ``make_value`` calls would.
        """
        pos = self._value_pos
        buf = self._value_buf
        if pos < len(buf):
            self._value_pos = pos + 1
            return buf[pos]
        return self._next_value_chunk()

    def _next_value_chunk(self) -> str:
        size = self.value_size_bytes
        count = self._value_chunk
        if count < _VALUE_CHUNK_MAX:
            self._value_chunk = count * 2
        blob = fastrand.chars(self._rng, count * size, _PRINTABLE)
        self._value_buf = buf = [blob[i:i + size]
                                 for i in range(0, count * size, size)]
        self._value_pos = 1
        return buf[0]
