"""Deterministic arrival processes for open-loop load generation.

A closed loop issues the next operation when the previous one completes; an
open loop issues operations when an external *arrival process* says users
showed up, whether or not the store has kept pace.  This module provides the
arrival processes the open-loop runner schedules from:

* :class:`UniformArrivals` — a constant inter-arrival gap (paced load, the
  shape most load generators call "fixed rate");
* :class:`PoissonArrivals` — exponentially distributed gaps (memoryless
  arrivals, the classic model for many independent users);
* :class:`BurstArrivals` — a two-phase on/off process: Poisson arrivals at a
  burst rate for ``on_ms``, then at a (possibly zero) off rate for
  ``off_ms``, repeating.  Models flash crowds and diurnal spikes.

Every process draws from a ``random.Random`` the caller seeds through
:mod:`repro.sim.rand` (``derive_rng(seed, name)``), so a given seed always
produces the same arrival trace — the property the ``--jobs N`` sweep
determinism and the golden figure hashes rely on.  Processes are consumed
through :meth:`ArrivalProcess.next_gap_ms`; :func:`arrival_trace` collects a
prefix of absolute arrival times for tests and examples.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional

from repro.workloads import fastrand

#: Names understood by :func:`make_arrival_process`.
ARRIVAL_KINDS = ("uniform", "poisson", "burst")

#: Per-draw gaps before a Poisson process auto-engages chunked precompute.
_AUTO_CHUNK_AFTER = 192
_CHUNK_MIN = 128
_CHUNK_MAX = 4096


def _check(name: str, value: float, zero_ok: bool = False) -> None:
    """Refuse a rate or phase length that is not a finite number above zero
    (or at least zero).  ``not value > 0`` rejects NaN, which compares
    false; an infinite rate would make every gap zero."""
    if not ((value >= 0 if zero_ok else value > 0) and math.isfinite(value)):
        raise ValueError(f"{name} must be "
                         f"{'non-negative' if zero_ok else 'positive'} "
                         f"and finite, got {value}")


class ArrivalProcess:
    """Base class: a stream of inter-arrival gaps in milliseconds."""

    #: Nominal offered rate in operations per second (informational).
    rate_ops_s: float = 0.0

    def next_gap_ms(self) -> float:
        """The gap between the previous arrival and the next one."""
        raise NotImplementedError


class UniformArrivals(ArrivalProcess):
    """A constant inter-arrival gap: exactly ``rate_ops_s`` per second."""

    def __init__(self, rate_ops_s: float,
                 rng: Optional[random.Random] = None) -> None:
        _check("rate", rate_ops_s)
        self.rate_ops_s = rate_ops_s
        self._gap_ms = 1000.0 / rate_ops_s

    def next_gap_ms(self) -> float:
        return self._gap_ms


class PoissonArrivals(ArrivalProcess):
    """Exponentially distributed gaps with mean ``1000 / rate_ops_s`` ms.

    High-volume processes precompute gap chunks through the
    :mod:`repro.workloads.fastrand` seam — same ``expovariate`` sequence
    bit-for-bit, amortized; short-lived processes stay per-draw.
    """

    def __init__(self, rate_ops_s: float, rng: random.Random) -> None:
        _check("rate", rate_ops_s)
        self.rate_ops_s = rate_ops_s
        self._rate_per_ms = rate_ops_s / 1000.0
        self._rng = rng
        self._buf: List[float] = []
        self._pos = 0
        self._chunk = _CHUNK_MIN
        self._draws = 0

    def next_gap_ms(self) -> float:
        pos = self._pos
        buf = self._buf
        if pos < len(buf):
            self._pos = pos + 1
            return buf[pos]
        if self._draws < _AUTO_CHUNK_AFTER:
            self._draws += 1
            return self._rng.expovariate(self._rate_per_ms)
        self._buf = buf = fastrand.exponential_gaps(
            self._rng, self._chunk, self._rate_per_ms)
        if self._chunk < _CHUNK_MAX:
            self._chunk *= 2
        self._pos = 1
        return buf[0]

    def prefill(self, n: int) -> int:
        """Precompute the next ``n`` gaps (open-loop runners batch these);
        the buffer refills in chunks from then on."""
        self._draws = _AUTO_CHUNK_AFTER
        if self._pos:
            self._buf = self._buf[self._pos:]
            self._pos = 0
        need = n - len(self._buf)
        if need > 0:
            self._buf.extend(fastrand.exponential_gaps(
                self._rng, need, self._rate_per_ms))
        return len(self._buf)


class BurstArrivals(ArrivalProcess):
    """On/off Poisson arrivals: ``on_rate_ops_s`` for ``on_ms``, then
    ``off_rate_ops_s`` for ``off_ms``, repeating from the start of the run.

    The phase clock is internal to the process (it advances with the gaps it
    hands out), so the trace depends only on the parameters and the seed —
    not on when the runner starts consuming it.
    """

    def __init__(self, on_rate_ops_s: float, rng: random.Random,
                 on_ms: float = 1_000.0, off_ms: float = 1_000.0,
                 off_rate_ops_s: float = 0.0) -> None:
        _check("burst rate", on_rate_ops_s)
        _check("off rate", off_rate_ops_s, zero_ok=True)
        _check("on phase", on_ms)
        _check("off phase", off_ms, zero_ok=True)
        self.on_rate_ops_s = on_rate_ops_s
        self.off_rate_ops_s = off_rate_ops_s
        self.on_ms = on_ms
        self.off_ms = off_ms
        period = on_ms + off_ms
        # Mean rate over one on/off period (informational).
        self.rate_ops_s = ((on_rate_ops_s * on_ms + off_rate_ops_s * off_ms)
                           / period) if period > 0 else on_rate_ops_s
        self._rng = rng
        self._in_burst = True
        self._phase_left_ms = on_ms

    def _phase_rate_per_ms(self) -> float:
        rate = self.on_rate_ops_s if self._in_burst else self.off_rate_ops_s
        return rate / 1000.0

    def _advance_phase(self) -> None:
        self._in_burst = not self._in_burst
        self._phase_left_ms = self.on_ms if self._in_burst else self.off_ms

    def next_gap_ms(self) -> float:
        # Walk phases until a draw lands inside the current one.  Exponential
        # gaps are memoryless, so redrawing at each phase boundary keeps the
        # per-phase rates exact while staying fully deterministic in the rng.
        total = 0.0
        while True:
            if self._phase_left_ms <= 0:
                self._advance_phase()
                continue
            rate = self._phase_rate_per_ms()
            if rate <= 0:
                total += self._phase_left_ms
                self._phase_left_ms = 0.0
                continue
            gap = self._rng.expovariate(rate)
            if gap < self._phase_left_ms:
                self._phase_left_ms -= gap
                return total + gap
            total += self._phase_left_ms
            self._phase_left_ms = 0.0


def make_arrival_process(kind: str, rate_ops_s: float,
                         rng: random.Random, **params) -> ArrivalProcess:
    """Factory mapping process names to instances.

    ``rate_ops_s`` is the nominal offered rate; for ``burst`` it is the
    *on-phase* rate and ``params`` may carry ``on_ms`` / ``off_ms`` /
    ``off_rate_ops_s``.
    """
    normalized = kind.lower()
    if normalized == "uniform":
        return UniformArrivals(rate_ops_s, rng)
    if normalized == "poisson":
        return PoissonArrivals(rate_ops_s, rng)
    if normalized == "burst":
        return BurstArrivals(rate_ops_s, rng, **params)
    raise ValueError(f"unknown arrival process {kind!r}; "
                     f"choose from {list(ARRIVAL_KINDS)}")


def arrival_trace(process: ArrivalProcess, count: int,
                  start_ms: float = 0.0) -> List[float]:
    """The first ``count`` absolute arrival times of ``process``.

    Consumes the process.  Used by the determinism tests (same seed ⇒ same
    trace) and by examples that want to show a schedule up front.
    """
    times: List[float] = []
    at = start_ms
    for _ in range(count):
        at += process.next_gap_ms()
        times.append(at)
    return times
