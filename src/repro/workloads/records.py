"""Dataset generation: YCSB-style records.

YCSB stores records named ``user0 .. userN`` with fixed-size values; the
divergence experiments use a deliberately small dataset (1 K records) so
that read activity concentrates on a hot set.

A record's key is a pure function of its index, and its time-zero value
of its key and the value size (:func:`time_zero_value`): nothing the
simulator measures depends on a value's characters, only on its size, so
no key or value of :class:`TimeZeroItems` is held, only formatted or
derived when read.  Update values are drawn from the dataset's seeded
generator (:meth:`Dataset.random_value`).
"""

from __future__ import annotations

import dataclasses
import math
import random
import string
from collections.abc import Mapping, Sequence
from hashlib import shake_128
from typing import Callable, Dict, Iterator, List, Optional, Tuple

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
    """The rule for a count or a size: an int >= 1, not a ``bool`` (a
    fraction fails later as a range bound, or makes a float wire size)."""
    if type(value) is not int or value < 1:
        raise ValueError(f"{name} must be a positive int: {value!r}")


def check_non_negative_int(name: str, value: object) -> None:
    """The rule for a count that may be zero (a retry count): the same, >= 0."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{name} must be a non-negative int: {value!r}")


def check_non_negative_float(name: str, value: object) -> None:
    """The rule for a time, a rate or a share: finite, >= 0, not a bool (a
    negative time runs the clock backwards, an infinite one ends no job)."""
    if type(value) is bool or not 0 <= value < math.inf:
        raise ValueError(f"{name} must be non-negative and finite: {value!r}")


def _check_positive_float(name: str, value: object) -> None:
    check_non_negative_float(name, value)
    if not value:
        raise ValueError(f"{name} must be positive")


def _or_none(rule: Callable) -> Callable:
    return lambda name, value: value is None or rule(name, value)


#: ``field(metadata=POSITIVE)``: an int field >= 1, a float one > 0.
POSITIVE = {"positive": True}
#: A numeric field's annotation -> its rule, without and with ``POSITIVE``.
_RULES = {"int": (check_non_negative_int, check_positive_int),
          "float": (check_non_negative_float, _check_positive_float)}
_RULES.update({f"Optional[{kind}]": tuple(map(_or_none, rules))
               for kind, rules in _RULES.items()})
#: A spec class -> ``(rule, names)``: its numeric fields, grouped by rule.
_FIELD_RULES: Dict[type, Tuple[Tuple[Callable, List[str]], ...]] = {}


def spec(cls: Optional[type] = None, /, **options):
    """``@dataclass`` (with ``options``) for a spec, whose ``__post_init__``
    starts with :func:`check_fields`; builds its rule table, once: a numeric
    field's annotation (a string) picks the rule, ``POSITIVE`` the stricter."""
    if cls is None:
        return lambda cls: spec(cls, **options)
    cls, groups = dataclasses.dataclass(cls, **options), {}
    for field in dataclasses.fields(cls):
        rules = _RULES.get(field.type)
        if rules is not None:
            rule = rules[bool(field.metadata.get("positive"))]
            groups.setdefault(rule, []).append(field.name)
    _FIELD_RULES[cls] = tuple(groups.items())
    return cls


def check_fields(spec: object) -> None:
    """Apply each numeric field's rule to ``spec``, an instance of a
    :func:`spec` class: a ``ValueError`` names the field that fails."""
    for rule, names in _FIELD_RULES[type(spec)]:
        # ``map`` calls the rule from C: no loop body runs per field.
        for _ in map(rule, names, map(spec.__getattribute__, names)):
            pass


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
    """A dataset's key -> time-zero value mapping, read-only, holding no
    key or value: the records ``records`` (a permutation of ``range(n)``,
    in iteration order), each keyed ``prefix + str(index)``."""

    def __init__(self, prefix: str, records: Sequence[int],
                 value_size: int) -> None:
        self.prefix, self.records, self.value_size = prefix, records, value_size

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[str]:
        return map(self.prefix.__add__, map(str, self.records))

    def __getitem__(self, key: str) -> str:
        try:  # canonical decimal only: no sign, space or leading zero
            index = int(key[len(self.prefix):])
        except (TypeError, ValueError):
            raise KeyError(key) from None
        if not 0 <= index < len(self) or key != f"{self.prefix}{index}":
            raise KeyError(key)
        return time_zero_value(key, self.value_size)


class Dataset:
    """A named collection of YCSB records."""

    def __init__(self, record_count: int = 1000, value_size_bytes: int = 100,
                 key_prefix: str = "user", seed: int = 0) -> None:
        check_positive_int("record_count", record_count)
        check_positive_int("value_size_bytes", value_size_bytes)
        check_non_negative_int("seed", seed)
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
        return list(self.initial_items())

    def cached_keys(self) -> Optional[List[str]]:
        """All key strings, cached for hot-path lookups by index; None
        above ``_KEY_CACHE_MAX`` records (those format keys on demand)."""
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
        """Key → value mapping used to preload a cluster: no key or value
        held, each formatted or derived when read."""
        return TimeZeroItems(self.key_prefix, range(self.record_count),
                             self.value_size_bytes)

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
