"""Bulk draws that reproduce ``random.Random`` bit for bit.

This module is the *determinism seam* between the per-draw ``random.Random``
API the simulator was written against and the chunked load generators:
dataset values, key choices, read/update mix draws and arrival gaps are
drawn in blocks whose values — and whose consumption of the generator's
Mersenne Twister words — are exactly what a per-draw loop over the same
``Random`` would have produced.  The generator is left in the same state
too, so bulk and per-draw calls interleave freely, and golden event traces
and committed figure tables cannot tell the two apart.

Each function draws from the caller's own ``random.Random`` and runs its
per-element loop in C:

* :func:`doubles` maps the unbound ``Random.random`` over the generator:
  the loop's own calls, without a bytecode per draw.
* :func:`accepted` is the rejection sampler of ``Random.choice`` and
  ``Random.randrange``: draw ``bits`` bits, redraw while the value is
  ``>= limit``.  A round draws one value per acceptance still needed and
  ``filter`` keeps the accepted ones, so a round never passes the last
  acceptance the loop would reach: the values drawn are the loop's.
* :func:`chars` is ``Random.choice(table)`` repeated, read off
  ``randbytes``.  ``randbytes(4 * m)`` is ``getrandbits(32 * m)`` in
  little-endian byte order, and CPython fills that integer with ``m``
  successive 32-bit MT words from the least significant end, so byte
  ``4 * i + 3`` is word ``i``'s top byte.  For ``bits <= 8``,
  ``getrandbits(bits)`` of one word is its top byte shifted right by
  ``8 - bits``, so one ``bytes.translate`` per round — a cached 256-byte
  map per table plus the set of rejected top bytes to delete — turns
  words into accepted characters.  Rounds draw what is still needed, as
  in :func:`accepted`.  Tables of 1-255 ASCII characters qualify.
* :func:`exponential_gaps` is ``Random.expovariate``,
  ``-log(1 - random()) / rate``, over :func:`doubles`, with the scalar
  ``math.log`` per element (a vectorized ``log`` may differ by an ulp,
  which would eventually flip a truncated index or a golden hash).

``randbytes`` needs Python >= 3.9, the floor ``pyproject.toml`` declares.
The functions take exact ``random.Random`` instances only: a subclass may
override ``random`` or ``getrandbits``, and the word arithmetic above would
then no longer be the loop's, so it is refused with ``TypeError``.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import repeat
from math import log as _log
from operator import rshift
from typing import List, Tuple

_Random = random.Random
_random = _Random.random


def _check(rng: random.Random) -> None:
    if type(rng) is not _Random:
        raise TypeError("bulk draws need an exact random.Random, got "
                        f"{type(rng).__name__}")


def doubles(rng: random.Random, n: int) -> List[float]:
    """``[rng.random() for _ in range(n)]``."""
    _check(rng)
    return list(map(_random, repeat(rng, n)))


def accepted(rng: random.Random, n: int, bits: int, limit: int) -> List[int]:
    """``n`` draws of ``rng.getrandbits(bits)``, each redrawn while it is
    ``>= limit``."""
    _check(rng)
    getrandbits = rng.getrandbits
    keep = limit.__gt__
    out: List[int] = []
    need = n
    while need > 0:
        out += filter(keep, map(getrandbits, repeat(bits, need)))
        need = n - len(out)
    return out


@lru_cache(maxsize=16)
def _char_map(table: str) -> Tuple[bytes, bytes]:
    """``table``'s 256-byte translation map and the top bytes to delete."""
    size = len(table)
    if not 0 < size < 256 or not table.isascii():
        raise ValueError("chars draws from tables of 1-255 ASCII "
                         f"characters, got {size} characters")
    # Byte ``top`` picks character ``top >> shift``; past the table, a
    # zero (never kept: ``top >= size << shift`` is deleted).
    shift = 8 - size.bit_length()
    padded = table.encode("ascii") + bytes((256 >> shift) - size)
    return (bytes(map(padded.__getitem__,
                      map(rshift, range(256), repeat(shift)))),
            bytes(range(size << shift, 256)))


def chars(rng: random.Random, n: int, table: str) -> str:
    """``"".join(rng.choice(table) for _ in range(n))``."""
    _check(rng)
    mapping, rejected = _char_map(table)
    randbytes = rng.randbytes
    parts: List[bytes] = []
    need = n
    while need > 0:
        part = randbytes(4 * need)[3::4].translate(mapping, rejected)
        parts.append(part)
        need -= len(part)
    return b"".join(parts).decode("ascii")


def exponential_gaps(rng: random.Random, n: int,
                     rate_per_ms: float) -> List[float]:
    """``[rng.expovariate(rate_per_ms) for _ in range(n)]``."""
    return [-_log(1.0 - u) / rate_per_ms for u in doubles(rng, n)]
