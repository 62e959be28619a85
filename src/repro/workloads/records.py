"""Dataset generation: YCSB-style records.

YCSB stores records named ``user0 .. userN`` with fixed-size values; the
divergence experiments use a deliberately small dataset (1 K records) so
that read activity concentrates on a hot set.
"""

from __future__ import annotations

import random
import string
from collections.abc import Mapping, ValuesView
from itertools import islice
from typing import Dict, Iterator, List, Optional, Sequence

from repro.workloads import fastrand

_PRINTABLE = string.ascii_letters + string.digits
_PRINTABLE_LEN = len(_PRINTABLE)          # 62
_PRINTABLE_BITS = _PRINTABLE_LEN.bit_length()  # 6

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

#: Records per initial-value chunk.  A chunk's draw holds about 7 bytes per
#: character while it runs (the ``randbytes`` integer and bytes, then the
#: sliced bytes and the string), so the chunk — not the dataset — sets the
#: transient: 2.8 MB at 4,096 values of 100 characters, against ~270 MB
#: for a 400k-key dataset in one draw.  Chunks of 16,384 values and more
#: also cost 18.5 ns per character instead of 14.3 (they leave the cache).
_INITIAL_CHUNK = 1 << 12


def make_value(rng: random.Random, size_bytes: int = 100) -> str:
    """A random printable string of ``size_bytes`` characters.

    This is an inlined, loop-hoisted equivalent of
    ``"".join(rng.choice(_PRINTABLE) for _ in range(size_bytes))``: it
    consumes exactly the same ``getrandbits`` sequence ``Random.choice``
    does (draw ``bit_length(62)`` bits, reject values >= 62), so both the
    produced strings and the generator state after the call are
    bit-identical to the original implementation — value generation is a
    hot path, but it must never perturb seeded experiments.
    """
    if size_bytes <= 0:
        raise ValueError("value size must be positive")
    getrandbits = rng.getrandbits
    table = _PRINTABLE
    bits = _PRINTABLE_BITS
    limit = _PRINTABLE_LEN
    chars = []
    append = chars.append
    for _ in range(size_bytes):
        r = getrandbits(bits)
        while r >= limit:
            r = getrandbits(bits)
        append(table[r])
    return "".join(chars)


class ColumnMapping(Mapping):
    """``keys[i]`` → ``values[i]``, read-only, over two columns (``values``
    may run longer).  Iterating it or its ``values()`` walks a column in C;
    a lookup by key builds the key → index dict on first use."""

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

    def values(self) -> ValuesView:
        return _ColumnValues(self)


class _ColumnValues(ValuesView):
    def __iter__(self) -> Iterator[object]:
        return islice(self._mapping._values, len(self._mapping))


class Dataset:
    """A named collection of YCSB records."""

    def __init__(self, record_count: int = 1000, value_size_bytes: int = 100,
                 key_prefix: str = "user", seed: int = 0) -> None:
        if record_count <= 0:
            raise ValueError("record_count must be positive")
        if value_size_bytes <= 0:
            raise ValueError("value size must be positive")
        self.record_count = record_count
        self.value_size_bytes = value_size_bytes
        self.key_prefix = key_prefix
        self._rng = random.Random(seed)
        self._value_buf: List[str] = []
        self._value_pos = 0
        self._value_chunk = 16
        self._key_cache: Optional[List[str]] = None
        self._initial_rng: Optional[random.Random] = None
        self._initial_values: List[str] = []

    def key(self, index: int) -> str:
        """The key of record ``index``."""
        if not 0 <= index < self.record_count:
            raise IndexError(f"record index out of range: {index}")
        return f"{self.key_prefix}{index}"

    def keys(self) -> List[str]:
        return [self.key(i) for i in range(self.record_count)]

    def cached_keys(self) -> Optional[List[str]]:
        """All key strings, cached for hot-path lookups by index.

        Returns ``None`` above ``_KEY_CACHE_MAX`` records (million-key
        datasets format keys on demand instead of pinning the strings).
        """
        if self.record_count > _KEY_CACHE_MAX:
            return None
        if self._key_cache is None:
            prefix = self.key_prefix
            self._key_cache = [f"{prefix}{i}"
                               for i in range(self.record_count)]
        return self._key_cache

    def initial_value(self, index: int) -> str:
        """A deterministic initial value for record ``index``.

        Values are sliced from the shared index-ordered character stream
        (see ``_INITIAL_VALUE_SEED``): independent of the dataset seed and
        of ``record_count``, and generated in bulk chunks so million-key
        preloads are not bounded by value generation.
        """
        if not 0 <= index < self.record_count:
            raise IndexError(f"record index out of range: {index}")
        values = self._initial_values
        if index >= len(values):
            self._fill_initial_values(index + 1)
        return values[index]

    def _fill_initial_values(self, count: int) -> None:
        size = self.value_size_bytes
        rng = self._initial_rng
        if rng is None:
            rng = self._initial_rng = random.Random(_INITIAL_VALUE_SEED)
        values = self._initial_values
        while len(values) < count:
            n = min(max(count - len(values), _VALUE_CHUNK_MAX),
                    _INITIAL_CHUNK)
            blob = fastrand.chars(rng, n * size, _PRINTABLE)
            values.extend([blob[i:i + size]
                           for i in range(0, n * size, size)])

    def initial_items(self) -> ColumnMapping:
        """Key → value mapping used to preload a cluster: a
        :class:`ColumnMapping` over the keys and the initial values."""
        self._fill_initial_values(self.record_count)
        prefix = self.key_prefix
        return ColumnMapping([f"{prefix}{i}" for i in range(self.record_count)],
                           self._initial_values)

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
