"""Region topology and WAN latency model.

The paper deploys replicas in three EC2 regions — Ireland (IRL), Frankfurt
(FRK) and N. Virginia (VRG) — and reports the round-trip times that drive its
latency gaps: ~20 ms between IRL and FRK, ~83 ms between IRL and VRG, and a
~2 ms RTT within a region.  The Twissandra case study instead uses Virginia,
N. California and Oregon with the client still in Ireland.

:class:`Topology` stores a symmetric RTT matrix; one-way delays are RTT/2
plus a small jitter drawn from the topology's RNG.
"""

from __future__ import annotations

import math
import random
from typing import Dict, FrozenSet, Iterable, Optional, Tuple


class Region:
    """Region name constants used throughout the benchmarks."""

    IRL = "eu-west-1"        # Ireland
    FRK = "eu-central-1"     # Frankfurt
    VRG = "us-east-1"        # N. Virginia
    NCA = "us-west-1"        # N. California
    ORE = "us-west-2"        # Oregon
    LOCAL = "local"          # same-host loopback


# Default RTTs (milliseconds) between region pairs, mirroring the figures the
# paper reports (IRL-FRK 20 ms, IRL-VRG 83 ms) plus public inter-region
# measurements for the remaining pairs.
_DEFAULT_RTTS: Dict[FrozenSet[str], float] = {
    frozenset({Region.IRL, Region.FRK}): 20.0,
    frozenset({Region.IRL, Region.VRG}): 83.0,
    frozenset({Region.FRK, Region.VRG}): 90.0,
    frozenset({Region.IRL, Region.NCA}): 150.0,
    frozenset({Region.IRL, Region.ORE}): 160.0,
    frozenset({Region.VRG, Region.NCA}): 70.0,
    frozenset({Region.VRG, Region.ORE}): 80.0,
    frozenset({Region.NCA, Region.ORE}): 22.0,
    frozenset({Region.FRK, Region.NCA}): 155.0,
    frozenset({Region.FRK, Region.ORE}): 165.0,
}

#: RTT between two distinct hosts in the same region.
INTRA_REGION_RTT_MS = 2.0
#: RTT between two processes colocated on the same host.
LOOPBACK_RTT_MS = 0.3


def non_negative(name: str, value: float) -> float:
    # A negative latency delivers before the send and runs the simulated
    # clock backwards; a negative jitter bound would be silently ignored;
    # an infinite one delivers never; a bool is no latency.  Spelt
    # ``not 0 <= value < inf`` so that NaN, which compares false, fails too.
    if type(value) is bool or not 0 <= value < math.inf:
        raise ValueError(
            f"{name} must be non-negative and finite, got {value!r}")
    return value


class Topology:
    """Symmetric RTT matrix over a set of regions with jittered one-way delays.

    A topology is fixed once built: the networks built on it cache routes
    and the jitter bound and never look back here on a send, so assigning
    an attribute raises.  A latency that changes mid-run is a fault,
    installed with :meth:`~repro.sim.network.Network.degrade_link`.
    """

    def __init__(self,
                 rtts: Optional[Dict[FrozenSet[str], float]] = None,
                 intra_region_rtt_ms: float = INTRA_REGION_RTT_MS,
                 loopback_rtt_ms: float = LOOPBACK_RTT_MS,
                 jitter_fraction: float = 0.05,
                 rng: Optional[random.Random] = None) -> None:
        table = dict(_DEFAULT_RTTS)
        if rtts:
            for pair, value in rtts.items():
                pair = frozenset(pair)
                if len(pair) != 2:
                    raise ValueError(
                        f"an rtt is between two distinct regions, got "
                        f"{sorted(pair)}; use intra_region_rtt_ms for "
                        f"same-region RTT")
                table[pair] = float(non_negative("rtt", value))
        fixed = {
            "_rtts": table,
            #: (region_a, region_b) -> base one-way delay; avoids building
            #: a ``frozenset`` per :meth:`one_way` call.
            "_one_way_base": {},
            #: RTT between two distinct hosts in the same region.
            "intra_region_rtt_ms": non_negative("intra_region_rtt_ms",
                                                intra_region_rtt_ms),
            #: RTT between two processes colocated on the same host.
            "loopback_rtt_ms": non_negative("loopback_rtt_ms",
                                            loopback_rtt_ms),
            #: Upper bound of the uniform jitter applied to one-way delays.
            "jitter_fraction": non_negative("jitter_fraction",
                                            jitter_fraction),
            "_rng": rng if rng is not None else random.Random(0),
        }
        self.__dict__.update(fixed)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"a Topology is fixed at construction; cannot set {name!r} "
            f"(a latency that changes mid-run is Network.degrade_link)")

    def rtt(self, region_a: str, region_b: str) -> float:
        """Baseline (jitter-free) round-trip time between two regions."""
        if region_a == region_b:
            return self.intra_region_rtt_ms
        key = frozenset({region_a, region_b})
        if key not in self._rtts:
            raise KeyError(f"no RTT configured between {region_a} and {region_b}")
        return self._rtts[key]

    def one_way(self, region_a: str, region_b: str,
                same_host: bool = False) -> float:
        """One-way delay sample between two endpoints (with jitter)."""
        if same_host:
            base = self.loopback_rtt_ms / 2.0
        else:
            key = (region_a, region_b)
            base = self._one_way_base.get(key)
            if base is None:
                base = self.rtt(region_a, region_b) / 2.0
                self._one_way_base[key] = base
        if self.jitter_fraction <= 0:
            return base
        jitter = self._rng.uniform(0.0, self.jitter_fraction) * base
        return base + jitter

    def regions(self) -> Iterable[str]:
        """All regions that appear in the configured RTT matrix."""
        seen = set()
        for pair in self._rtts:
            seen.update(pair)
        return sorted(seen)


def replica_regions_default() -> Tuple[str, str, str]:
    """Replica placement used in most experiments (FRK, IRL, VRG)."""
    return (Region.FRK, Region.IRL, Region.VRG)


def replica_regions_twissandra() -> Tuple[str, str, str]:
    """Replica placement used for the Twissandra case study."""
    return (Region.VRG, Region.NCA, Region.ORE)


def round_robin_regions(count: int,
                        cycle: Optional[Iterable[str]] = None
                        ) -> Tuple[str, ...]:
    """Place ``count`` nodes round-robin over a region cycle.

    The scaling experiments use this to grow the paper's 3-region layout to
    arbitrarily many nodes: ``count=6`` puts two nodes in each of FRK, IRL
    and VRG.  ``cycle`` defaults to :func:`replica_regions_default`.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    regions = tuple(cycle) if cycle is not None else replica_regions_default()
    if not regions:
        raise ValueError("region cycle must be non-empty")
    return tuple(regions[i % len(regions)] for i in range(count))
