"""YCSB core workloads A, B and C.

A workload is an operation mix (read vs update proportions) plus a request
distribution.  :class:`OperationGenerator` turns a workload specification and
a dataset into an endless stream of ``("read" | "update", key, value)``
operations, which the closed-loop runner feeds to the system under test.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import replace
from typing import Optional, Tuple

from repro.sim.rand import derive_rng
from repro.workloads import fastrand
from repro.workloads.distributions import make_key_chooser
from repro.workloads.records import Dataset, check_fields, spec

#: Per-draw operations before a generator auto-engages chunked prefill.
#: Short-lived generators (open-loop sessions issue tens of ops) never
#: draw a chunk they would mostly not use; closed-loop threads cross this
#: within the warmup.
_AUTO_CHUNK_AFTER = 192
#: Prefill chunks ramp between these bounds as a generator keeps drawing.
_CHUNK_MIN = 256
_CHUNK_MAX = 4096


@spec(frozen=True)
class WorkloadSpec:
    """An operation mix in the style of the YCSB core workloads."""

    name: str
    read_proportion: float
    update_proportion: float
    request_distribution: str = "zipfian"
    #: Zipf skew parameter for the zipfian-family distributions.  ``None``
    #: keeps the YCSB default (0.99); larger values concentrate traffic on
    #: fewer keys — the hot-partition regimes of the rebalance experiments.
    zipf_theta: Optional[float] = None

    def __post_init__(self) -> None:
        check_fields(self)
        total = self.read_proportion + self.update_proportion
        if abs(total - 1.0) > 1e-9:
            raise ValueError(
                f"proportions must sum to 1.0, got {total} for {self.name}")
        if self.zipf_theta is not None and (
                not 0.0 < self.zipf_theta < 2.0 or self.zipf_theta == 1.0):
            # theta = 1 makes the Gray et al. generator's alpha diverge.
            raise ValueError(
                f"zipf_theta must be in (0, 2) excluding 1, "
                f"got {self.zipf_theta}")

    def with_distribution(self, distribution: str) -> "WorkloadSpec":
        """The same mix under a different request distribution."""
        return replace(self, request_distribution=distribution)

    def with_skew(self, theta: Optional[float]) -> "WorkloadSpec":
        """The same mix with a different Zipf skew (``None`` = YCSB 0.99)."""
        return replace(self, zipf_theta=theta)


#: Workload A — update heavy (50:50 read/update), e.g. a session store.
WORKLOAD_A = WorkloadSpec("A", read_proportion=0.5, update_proportion=0.5)
#: Workload B — read mostly (95:5), e.g. photo tagging.
WORKLOAD_B = WorkloadSpec("B", read_proportion=0.95, update_proportion=0.05)
#: Workload C — read only, e.g. a user-profile cache.
WORKLOAD_C = WorkloadSpec("C", read_proportion=1.0, update_proportion=0.0)


def workload_by_name(name: str) -> WorkloadSpec:
    """Look up one of the core workloads by its letter."""
    mapping = {"A": WORKLOAD_A, "B": WORKLOAD_B, "C": WORKLOAD_C}
    try:
        return mapping[name.upper()]
    except KeyError:
        raise KeyError(f"unknown YCSB workload: {name!r}") from None


class OperationGenerator:
    """Draws operations according to a workload spec over a dataset.

    Two random streams drive a generator: the *key* stream (which record)
    and the *mix* stream (read or update).  Constructed with a single
    ``rng``, both decisions share that one instance — the historical
    behaviour the committed figure tables were produced with, kept for
    byte-compatibility.  The sharing couples the streams: changing the
    read proportion shifts which keys get chosen.  :meth:`seeded` instead
    derives two independent, label-keyed streams (the ``derive_point_rng``
    convention), so key choice survives mix changes unchanged; new
    harnesses (the open-loop experiments) use it.
    """

    def __init__(self, spec: WorkloadSpec, dataset: Dataset,
                 rng: Optional[random.Random] = None, *,
                 key_rng: Optional[random.Random] = None,
                 mix_rng: Optional[random.Random] = None) -> None:
        if rng is None and (key_rng is None or mix_rng is None):
            raise ValueError("pass either a shared rng or both key_rng "
                             "and mix_rng")
        self.spec = spec
        self.dataset = dataset
        self._rng = mix_rng if mix_rng is not None else rng
        self._key_rng = key_rng if key_rng is not None else rng
        self._chooser = make_key_chooser(
            spec.request_distribution, dataset.record_count,
            self._key_rng, theta=spec.zipf_theta)
        self.reads_generated = 0
        self.updates_generated = 0
        # Chunked prefill state: 4-byte ops packed as (index << 1) | is_update.
        self._buf = array("I")
        self._buf_pos = 0
        self._chunk = _CHUNK_MIN
        self._plain_draws = 0
        #: None = undecided, False = per-draw only, True = chunked prefill.
        self._chunked: Optional[bool] = None
        self._keys: Optional[list] = None

    @classmethod
    def seeded(cls, spec: WorkloadSpec, dataset: Dataset, seed: int,
               label: str) -> "OperationGenerator":
        """A generator whose key and mix streams are independently seeded.

        Streams are derived as ``{label}:keys`` and ``{label}:mix`` from the
        experiment seed, so each is reproducible on its own and neither
        perturbs the other (nor any other consumer of the same seed).
        """
        return cls(spec, dataset,
                   key_rng=derive_rng(seed, f"{label}:keys"),
                   mix_rng=derive_rng(seed, f"{label}:mix"))

    def next_operation(self) -> Tuple[str, str, Optional[str]]:
        """Return ``(op_type, key, value)``; value is None for reads.

        Draws pop from a chunked buffer precomputed through the
        :mod:`repro.workloads.fastrand` determinism seam whenever the
        chooser supports it — the op stream (types, keys, values, counters)
        and the rngs' states are bit-identical to the per-draw path, only
        amortized.  Values are resolved at pop time so the dataset's shared
        value stream keeps its global order across generators.
        """
        pos = self._buf_pos
        buf = self._buf
        if pos == len(buf):
            chunked = self._chunked
            if chunked is None and self._plain_draws >= _AUTO_CHUNK_AFTER:
                chunked = self._setup_chunking()
            if not chunked:
                self._plain_draws += 1
                index = self._chooser.next_index()
                key = self.dataset.key(index)
                if self._rng.random() < self.spec.read_proportion:
                    self.reads_generated += 1
                    return "read", key, None
                self.updates_generated += 1
                self._chooser.notify_insert(index)
                return "update", key, self.dataset.random_value()
            # Refill, then pop the fresh chunk's first op below.
            self._buf = buf = self._generate(self._chunk)
            if self._chunk < _CHUNK_MAX:
                self._chunk *= 2
            pos = 0
        packed = buf[pos]
        self._buf_pos = pos + 1
        index = packed >> 1
        keys = self._keys
        key = keys[index] if keys is not None else self.dataset.key(index)
        if packed & 1:
            self.updates_generated += 1
            return "update", key, self.dataset.random_value()
        self.reads_generated += 1
        return "read", key, None

    def prefill(self, n: int) -> int:
        """Precompute the next ``n`` operations into the chunk buffer.

        Returns how many operations are buffered afterwards; 0 means the
        chooser cannot be precomputed (a stateful distribution, or key
        draws of varying length sharing the mix rng) and draws stay per-op
        — still bit-identical, just not batched.
        """
        if self._chunked is None:
            self._setup_chunking()
        if not self._chunked:
            return 0
        need = n - (len(self._buf) - self._buf_pos)
        if need > 0:
            self._buf.extend(self._generate(need))
        return len(self._buf) - self._buf_pos

    def _setup_chunking(self) -> bool:
        """Decide (once) whether draws can be precomputed in chunks."""
        kind = getattr(self._chooser, "vector_kind", None)
        # Not for a stateful chooser, nor for key draws that consume a
        # data-dependent number of MT words from the rng the mix draws
        # share (their interleaving can then not be precomputed).
        chunked = self._chunked = kind is not None and (
            kind == "doubles" or self._key_rng is not self._rng)
        if chunked:
            self._keys = self.dataset.cached_keys()
        return chunked

    def _generate(self, n: int) -> array:
        """``n`` packed ops, drawn exactly like ``n`` per-draw ops."""
        chooser = self._chooser
        read_proportion = self.spec.read_proportion
        if self._key_rng is self._rng:
            # Shared rng: per op the historical path draws one double for
            # the key, then one for the mix — deinterleave a single block.
            block = fastrand.doubles(self._rng, 2 * n)
            indexes = chooser.indices_from_doubles(block[0::2])
            mix = block[1::2]
        else:
            if chooser.vector_kind == "doubles":
                indexes = chooser.indices_from_doubles(
                    fastrand.doubles(self._key_rng, n))
            else:
                indexes = chooser.next_indices(n)
            mix = fastrand.doubles(self._rng, n)
        if read_proportion >= 1.0:
            # Read-only mix (workload C): every double is < 1.0, so the
            # update bit is always clear — the mix draws above are still
            # consumed, keeping the streams bit-identical to the mixed path.
            return array("I", [index << 1 for index in indexes])
        return array("I", [(index << 1) | (u >= read_proportion)
                           for index, u in zip(indexes, mix)])
