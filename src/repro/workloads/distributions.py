"""Request-distribution generators (YCSB semantics).

* *Uniform* — every record equally likely;
* *Zipfian* — popularity follows a Zipf law with the YCSB constant 0.99,
  independent of insertion order (implemented with the Gray et al. generator
  YCSB uses);
* *Scrambled Zipfian* — Zipfian popularity hashed over the key space;
* *Latest* — like Zipfian but anchored at the most recently inserted record,
  so reads skew towards what was just written.  This is the distribution
  under which the paper observes up to 25 % divergence (Figure 7).

A chooser consumes draws from the ``random.Random`` it is given; when the
same instance also feeds other decisions (e.g. the read/update mix), the two
streams perturb each other — changing the mix silently changes which keys
get chosen.  :meth:`repro.workloads.ycsb.OperationGenerator.seeded`
therefore passes each chooser a dedicated, label-keyed stream (the same
convention as the sweep engine's ``derive_point_rng``), so key choice is
independent of every other draw made with the same seed.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Optional

from repro.workloads import fastrand


class UniformKeyChooser:
    """Uniformly random record indices in ``[0, record_count)``."""

    #: Vectorized draw pattern (see ``OperationGenerator.prefill``):
    #: ``randrange`` consumes a data-dependent number of MT words per draw.
    vector_kind = "words"

    def __init__(self, record_count: int, rng: random.Random) -> None:
        if record_count <= 0:
            raise ValueError("record_count must be positive")
        self.record_count = record_count
        self._rng = rng

    def next_index(self) -> int:
        return self._rng.randrange(self.record_count)

    def next_indices(self, n: int) -> list:
        """The next ``n`` indices, exactly as ``n`` calls of ``next_index``.

        ``Random.randrange(upper)`` draws ``upper.bit_length()`` bits and
        rejects values >= upper; :func:`~repro.workloads.fastrand.accepted`
        is that loop in bulk.
        """
        return fastrand.accepted(self._rng, n, self.record_count.bit_length(),
                                 self.record_count)

    def notify_insert(self, index: int) -> None:  # pragma: no cover - no-op
        """Uniform choice does not depend on recency."""


class ZipfianKeyChooser:
    """The YCSB Zipfian generator (Gray et al.), constant 0.99.

    Item 0 is the most popular, item 1 the second most popular, and so on.
    """

    ZIPFIAN_CONSTANT = 0.99

    #: ``(n, theta) -> zeta(n, theta)``; the harmonic sum is O(n) to compute
    #: and identical for every chooser over the same key space, so open-loop
    #: runs with thousands of per-session generators compute it once.
    _zeta_cache: dict = {}

    def __init__(self, record_count: int, rng: random.Random,
                 theta: Optional[float] = None) -> None:
        if record_count <= 0:
            raise ValueError("record_count must be positive")
        self.record_count = record_count
        self._rng = rng
        self.theta = self.ZIPFIAN_CONSTANT if theta is None else theta
        cache_key = (record_count, self.theta)
        if cache_key not in self._zeta_cache:
            self._zeta_cache[cache_key] = self._zeta(record_count, self.theta)
        self._zetan = self._zeta_cache[cache_key]
        self._zeta2 = self._zeta(2, self.theta)
        self._alpha = 1.0 / (1.0 - self.theta)
        denominator = 1 - self._zeta2 / self._zetan
        if abs(denominator) < 1e-12:
            # Degenerate key spaces (1 or 2 records): the generic formula has
            # a zero denominator; any eta works because next_index clamps.
            self._eta = 0.0
        else:
            self._eta = ((1 - (2.0 / record_count) ** (1 - self.theta))
                         / denominator)

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    #: One ``random()`` double per draw — the pattern ``prefill`` vectorizes.
    vector_kind = "doubles"

    def next_index(self) -> int:
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return min(1, self.record_count - 1)
        index = int(self.record_count *
                    (self._eta * u - self._eta + 1) ** self._alpha)
        return min(index, self.record_count - 1)

    def indices_from_doubles(self, us) -> list:
        """Map uniform draws to indices exactly as ``next_index`` does.

        The transform stays scalar Python on purpose: a vectorized ``pow``
        may differ from libm by 1 ulp on some inputs, which could flip a
        truncated index and desync seeded experiments (see
        :mod:`repro.workloads.fastrand`).
        """
        zetan = self._zetan
        eta = self._eta
        alpha = self._alpha
        rc = self.record_count
        half = 1.0 + 0.5 ** self.theta
        nm1 = rc - 1
        second = 1 if rc > 1 else 0
        out = []
        append = out.append
        for u in us:
            uz = u * zetan
            if uz < 1.0:
                append(0)
            elif uz < half:
                append(second)
            else:
                index = int(rc * (eta * u - eta + 1) ** alpha)
                append(index if index < nm1 else nm1)
        return out

    def notify_insert(self, index: int) -> None:  # pragma: no cover - no-op
        """Plain Zipfian popularity ignores recency."""


class ScrambledZipfianKeyChooser:
    """Zipfian popularity spread over the key space by hashing."""

    #: Consumes exactly the underlying Zipfian's one double per draw.
    vector_kind = "doubles"

    def __init__(self, record_count: int, rng: random.Random,
                 theta: Optional[float] = None) -> None:
        self.record_count = record_count
        self._zipfian = ZipfianKeyChooser(record_count, rng, theta=theta)

    def next_index(self) -> int:
        raw = self._zipfian.next_index()
        digest = hashlib.md5(str(raw).encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % self.record_count

    def indices_from_doubles(self, us) -> list:
        rc = self.record_count
        md5 = hashlib.md5
        from_bytes = int.from_bytes
        return [from_bytes(md5(str(raw).encode("utf-8")).digest()[:8],
                           "big") % rc
                for raw in self._zipfian.indices_from_doubles(us)]

    def notify_insert(self, index: int) -> None:  # pragma: no cover - no-op
        """Scrambled Zipfian ignores recency."""


class LatestKeyChooser:
    """YCSB's *Latest* distribution: skewed towards recently inserted records.

    The generator draws a Zipfian offset from the most recent record, so the
    newest records are the hottest — the workload that maximizes the chance
    of reading a key while its latest write is still propagating.
    """

    #: Stateful (``notify_insert`` moves the anchor mid-stream): draws can
    #: not be precomputed, so generators keep the per-draw path.
    vector_kind = None

    def __init__(self, record_count: int, rng: random.Random,
                 theta: Optional[float] = None) -> None:
        if record_count <= 0:
            raise ValueError("record_count must be positive")
        self.record_count = record_count
        self._latest = record_count - 1
        self._zipfian = ZipfianKeyChooser(record_count, rng, theta=theta)

    def next_index(self) -> int:
        return (self._latest - self._zipfian.next_index()) % self.record_count

    def notify_insert(self, index: int) -> None:
        """Track the most recent record touched by an insert/update."""
        self._latest = max(self._latest, index) if index >= 0 else self._latest
        # YCSB's Latest generator follows the insertion frontier; updates to
        # existing records keep the frontier where it is.


def make_key_chooser(name: str, record_count: int,
                     rng: random.Random,
                     theta: Optional[float] = None):
    """Factory mapping YCSB distribution names to generator instances.

    ``theta`` dials the Zipf skew for the zipfian-family distributions
    (``None`` keeps the YCSB constant 0.99); the uniform distribution
    ignores it.
    """
    normalized = name.lower()
    if normalized == "uniform":
        return UniformKeyChooser(record_count, rng)
    if normalized == "zipfian":
        return ZipfianKeyChooser(record_count, rng, theta=theta)
    if normalized == "scrambled_zipfian":
        return ScrambledZipfianKeyChooser(record_count, rng, theta=theta)
    if normalized == "latest":
        return LatestKeyChooser(record_count, rng, theta=theta)
    raise ValueError(f"unknown request distribution: {name!r}")
