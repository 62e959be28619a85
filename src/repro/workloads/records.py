"""Dataset generation: YCSB-style records.

YCSB stores records named ``user0 .. userN`` with fixed-size values; the
divergence experiments use a deliberately small dataset (1 K records) so
that read activity concentrates on a hot set.

A record's time-zero value is a pure function of its key and the value
size (:func:`time_zero_value`): nothing the simulator measures depends on
a value's characters, only on its size, so no value is drawn or held until
something reads it.  Update values are drawn from the dataset's seeded
generator (:meth:`Dataset.random_value`).
"""

from __future__ import annotations

import random
import string
from collections.abc import ItemsView, Mapping, ValuesView
from hashlib import shake_128
from itertools import repeat
from typing import Iterator, List, Optional, Tuple

from repro.workloads import fastrand

_PRINTABLE = string.ascii_letters + string.digits
#: Byte ``b`` -> ``_PRINTABLE[b % 62]``, a ``bytes.translate`` table.
_BYTE_TO_PRINTABLE = (_PRINTABLE * 5)[:256].encode()

#: Value chunks ramp 16 → 256 so short runs waste few precomputed values
#: while long runs amortize the chunk overhead.
_VALUE_CHUNK_MAX = 256

#: Key-string caching is capped so million-key datasets don't pin ~60 MB of
#: interned key strings; above the cap keys are formatted on demand.
_KEY_CACHE_MAX = 1 << 18


def check_positive_int(name: str, value: object) -> None:
    """The rule for a count or a size: a ``ValueError`` naming ``name``
    unless ``value`` is a positive int (a ``bool`` is not one)."""
    if type(value) is bool or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be a positive int: {value!r}")


def check_non_negative_int(name: str, value: object) -> None:
    """The rule for a count that may be zero (a retry count): a
    ``ValueError`` naming ``name`` unless ``value`` is an int >= 0 (a
    ``bool`` is not one)."""
    if type(value) is bool or not isinstance(value, int) or value < 0:
        raise ValueError(f"{name} must be a non-negative int: {value!r}")


def time_zero_value(key: str, size: int) -> str:
    """The time-zero value of ``key``: ``size`` printable characters, one
    per byte of the key's SHAKE-128 digest."""
    return shake_128(key.encode()).digest(size).translate(
        _BYTE_TO_PRINTABLE).decode()


def make_value(rng: random.Random, size_bytes: int = 100) -> str:
    """A random printable string of ``size_bytes`` characters:
    ``"".join(rng.choice(_PRINTABLE) for _ in range(size_bytes))``, drawn in
    bulk by :func:`repro.workloads.fastrand.chars` (the same string, and the
    generator left in the same state)."""
    check_positive_int("size_bytes", size_bytes)
    return fastrand.chars(rng, size_bytes, _PRINTABLE)


class TimeZeroItems(Mapping):
    """A dataset's key -> time-zero value mapping, read-only: the keys as
    one list and each value derived from its key when read.  A lookup by
    key builds a key set first."""

    def __init__(self, keys: List[str], value_size: int) -> None:
        self._keys, self.value_size = keys, value_size
        self._members: Optional[frozenset] = None

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[str]:
        return iter(self._keys)

    def __getitem__(self, key: str) -> str:
        if self._members is None:
            self._members = frozenset(self._keys)
        if key not in self._members:
            raise KeyError(key)
        return time_zero_value(key, self.value_size)

    def values(self) -> ValuesView:
        return _TimeZeroValues(self)

    def items(self) -> ItemsView:
        return _TimeZeroItemsView(self)


def _derive(items: TimeZeroItems) -> Iterator[str]:
    return map(time_zero_value, items._keys, repeat(items.value_size))


class _TimeZeroValues(ValuesView):
    def __iter__(self) -> Iterator[str]:
        return _derive(self._mapping)


class _TimeZeroItemsView(ItemsView):
    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return zip(self._mapping._keys, _derive(self._mapping))


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
        """The time-zero value of record ``index``: :func:`time_zero_value`
        of its key, independent of the dataset seed."""
        return time_zero_value(self.key(index), self.value_size_bytes)

    def initial_items(self) -> TimeZeroItems:
        """Key → value mapping used to preload a cluster: the keys, each
        value derived from its key when read."""
        return TimeZeroItems(self.keys(), self.value_size_bytes)

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
