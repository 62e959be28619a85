"""Chunked random-draw streams that reproduce ``random.Random`` bit-for-bit.

This module is the *determinism seam* between the per-draw ``random.Random``
API the simulator was written against and the vectorized load generators the
perf work needs.  A stream hands out **blocks** of draws (doubles, bounded
ints, printable characters) whose values — and whose consumption of the
underlying Mersenne Twister word sequence — are exactly what a per-draw loop
over the same ``Random`` instance would have produced.  Golden event traces
and committed figure tables therefore cannot tell the two apart.

Two backends implement the same small interface:

* :class:`MirrorStream` (numpy, auto-detected): transfers the ``Random``'s
  MT19937 state into a ``numpy.random.MT19937`` **once** and from then on
  generates raw 32-bit words in C.  ``random.Random.random()`` is built from
  two words as ``((w0 >> 5) << 26 | (w1 >> 6)) * 2**-53`` and
  ``getrandbits(k)`` (k <= 32) is ``word >> (32 - k)`` — pure integer
  pipelines that vectorize exactly.  Deliberately *not* vectorized: any
  transcendental math (``**``, ``log``); numpy's SIMD ``pow``/``log`` differ
  from scalar libm by 1 ulp on a few percent of inputs, which would
  eventually flip a truncated Zipfian index and break a golden hash.  The
  nonlinear transforms stay scalar Python on top of exact vectorized words.
* :class:`PureStream` (``array``-module baseline, always available): draws
  per-call from the source ``Random`` into ``array('d')`` / ``array('Q')``
  chunks.  Same values trivially; the chunking still amortizes attribute
  lookups in the consumers.

A ``MirrorStream`` becomes the *authoritative* owner of its source's
randomness: the source ``Random`` is left untouched (stale) after the state
transfer, so a consumer must route **every** subsequent draw through the
stream.  :meth:`MirrorStream.sync` writes the post-consumption state back
into the source, which the equivalence tests use to prove the two backends
leave the generator in identical states.
"""

from __future__ import annotations

import random
from array import array
from importlib.util import find_spec
from math import log as _log
from typing import List, Optional, Sequence, Union

#: Whether the numpy backend can be had.  numpy itself (~110 ms, ~15 MB) is
#: imported by the first :class:`MirrorStream`, so a process that never
#: vectorizes a draw (ZooKeeper runs, most unit tests) never pays for it.
#: Streams are built with their generators and datasets, i.e. during
#: set-up, so the import never lands on a serve path.
HAVE_NUMPY = find_spec("numpy") is not None

#: Name of the fastest available backend ("numpy" or "array").
BACKEND = "numpy" if HAVE_NUMPY else "array"

_np = None
_MT19937 = None


def _import_numpy() -> None:
    global _np, _MT19937
    import numpy
    from numpy.random import MT19937
    _np, _MT19937 = numpy, MT19937


#: Raw 32-bit words pulled from the mirror per refill.  8192 words is ~25us
#: of ``random_raw`` and covers ~4096 ``random()`` doubles.
_WORD_BLOCK = 8192

_INV_2_53 = 1.0 / 9007199254740992.0  # 2**-53


def vectorizable(rng: random.Random) -> bool:
    """True when ``rng`` can be mirrored word-exactly by the numpy backend.

    Subclasses of ``random.Random`` may override ``random``/``getrandbits``,
    so only exact ``random.Random`` instances qualify.
    """
    return HAVE_NUMPY and type(rng) is random.Random


class PureStream:
    """The ``array``-module baseline backend: per-draw, chunked storage.

    Draws flow through the source ``Random`` itself, so the source state is
    always current and :meth:`sync` is a no-op.
    """

    __slots__ = ("_source",)

    backend = "array"

    def __init__(self, source: random.Random) -> None:
        self._source = source

    def doubles(self, n: int) -> Sequence[float]:
        """``[source.random() for _ in range(n)]`` as an ``array('d')``."""
        rnd = self._source.random
        return array("d", [rnd() for _ in range(n)])

    def accepted(self, n: int, bits: int, limit: int) -> Sequence[int]:
        """``n`` accepted draws of ``getrandbits(bits)`` rejecting >= limit.

        This is the word pattern of both ``Random.choice`` (via
        ``_randbelow``) and ``Random.randrange``.
        """
        getrandbits = self._source.getrandbits
        out = array("Q", bytes(8 * n))
        for i in range(n):
            r = getrandbits(bits)
            while r >= limit:
                r = getrandbits(bits)
            out[i] = r
        return out

    def chars(self, n: int, table: str) -> str:
        """``n`` characters drawn exactly like ``Random.choice(table)``."""
        bits = len(table).bit_length()
        return "".join([table[r] for r in self.accepted(n, bits, len(table))])

    def sync(self) -> None:
        """The source is already current (draws went through it)."""

    def close(self) -> None:
        """Release the stream; the source keeps its current state."""


class MirrorStream:
    """numpy MT19937 mirror of a ``random.Random`` — exact, authoritative.

    The mirror buffers raw words internally so rejection sampling consumes
    *exactly* as many words as the per-draw loop would; leftover words feed
    the next request.  ``_consumed`` counts words handed to consumers, which
    lets :meth:`sync` reconstruct the precise ``Random`` state the per-draw
    equivalent would have reached (the mirror itself may have generated a
    partial block ahead).
    """

    __slots__ = ("_source", "_mt", "_buf", "_pos", "_origin", "_consumed")

    backend = "numpy"

    def __init__(self, source: random.Random) -> None:
        if not vectorizable(source):
            raise TypeError("MirrorStream requires numpy and a plain "
                            "random.Random instance")
        if _np is None:
            _import_numpy()
        state = source.getstate()
        self._source = source
        self._origin = state
        self._consumed = 0
        self._mt = self._mt_from(state)
        self._buf = None
        self._pos = 0

    @staticmethod
    def _mt_from(state) -> "_MT19937":
        mt = _MT19937()
        mt.state = {
            "bit_generator": "MT19937",
            "state": {
                "key": _np.fromiter(state[1][:-1], dtype=_np.uint32,
                                    count=624),
                "pos": state[1][-1],
            },
        }
        return mt

    def _available(self) -> int:
        return 0 if self._buf is None else len(self._buf) - self._pos

    def _refill(self, at_least: int) -> None:
        block = self._mt.random_raw(max(at_least, _WORD_BLOCK))
        if self._available():
            self._buf = _np.concatenate((self._buf[self._pos:], block))
        else:
            self._buf = block
        self._pos = 0

    def _take_words(self, n: int) -> "_np.ndarray":
        if self._available() < n:
            self._refill(n - self._available())
        pos = self._pos
        self._pos = pos + n
        self._consumed += n
        return self._buf[pos:pos + n]

    def doubles(self, n: int) -> List[float]:
        """``[source.random() for _ in range(n)]``, bit-exact."""
        w = self._take_words(2 * n)
        hi = (w[0::2] >> 5) << 26
        vals = ((hi + (w[1::2] >> 6)).astype(_np.float64)) * _INV_2_53
        return vals.tolist()

    def accepted(self, n: int, bits: int, limit: int) -> "_np.ndarray":
        """``n`` accepted ``getrandbits(bits)`` draws rejecting >= limit."""
        shift = 32 - bits
        out = _np.empty(n, dtype=_np.uint64)
        filled = 0
        while filled < n:
            if not self._available():
                # Expected acceptance rate is limit / 2**bits; over-pull a
                # little so one refill usually suffices.  Unused words stay
                # buffered — consumption accounting remains exact.
                want = int((n - filled) * ((1 << bits) / limit)) + 16
                self._refill(want)
            vals = self._buf[self._pos:] >> shift
            mask = vals < limit
            hits = int(mask.sum())
            if filled + hits >= n:
                need = n - filled
                positions = _np.nonzero(mask)[0]
                used = int(positions[need - 1]) + 1
                out[filled:n] = vals[mask][:need]
                self._pos += used
                self._consumed += used
                filled = n
            else:
                if hits:
                    out[filled:filled + hits] = vals[mask]
                    filled += hits
                taken = len(self._buf) - self._pos
                self._pos = len(self._buf)
                self._consumed += taken
        return out

    def chars(self, n: int, table: str) -> str:
        """``n`` characters drawn exactly like ``Random.choice(table)``."""
        bits = len(table).bit_length()
        acc = self.accepted(n, bits, len(table))
        lookup = _np.frombuffer(table.encode("ascii"), dtype=_np.uint8)
        return lookup[acc.astype(_np.intp)].tobytes().decode("ascii")

    def sync(self) -> None:
        """Write the consumed-draw state back into the source ``Random``.

        The mirror may have generated words beyond what consumers took;
        replaying ``_consumed`` words from the origin state lands the source
        exactly where the per-draw loop would have left it.
        """
        mt = self._mt_from(self._origin)
        if self._consumed:
            mt.random_raw(self._consumed)
        inner = mt.state["state"]
        self._source.setstate(
            (3, tuple(inner["key"].tolist()) + (int(inner["pos"]),),
             self._origin[2]))

    def close(self) -> None:
        """Sync the source and drop the buffered lookahead."""
        self.sync()
        self._buf = None
        self._pos = 0


Stream = Union[MirrorStream, PureStream]


def make_stream(rng: random.Random,
                backend: Optional[str] = None) -> Stream:
    """The fastest exact stream for ``rng`` (or a specific ``backend``)."""
    if backend not in (None, "numpy", "array"):
        raise ValueError(f"unknown fastrand backend: {backend!r}")
    if backend == "numpy" or (backend is None and vectorizable(rng)):
        return MirrorStream(rng)
    return PureStream(rng)


def exponential_gaps(stream: Stream, n: int, rate_per_ms: float) -> List[float]:
    """``n`` draws of ``Random.expovariate(rate_per_ms)``, bit-exact.

    CPython computes ``-log(1 - random()) / lambd``; the ``log`` stays
    scalar ``math.log`` (see module docstring), only the uniform draws are
    vectorized.
    """
    inv = rate_per_ms
    return [-_log(1.0 - u) / inv for u in stream.doubles(n)]
