"""Convenience bundle wiring scheduler, topology and network together.

Every experiment builds a :class:`SimEnvironment` from a seed, then
constructs its cluster(s) and clients on top of it.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.network import Network
from repro.sim.rand import derive_rng
from repro.sim.scheduler import Scheduler
from repro.sim.topology import Topology


class SimEnvironment:
    """A complete simulation context: clock, scheduler, topology, network."""

    def __init__(self, seed: int = 0,
                 topology: Optional[Topology] = None) -> None:
        self.seed = seed
        self.scheduler = Scheduler()
        if topology is None:
            topology = Topology(rng=derive_rng(seed, "topology"))
        self.topology = topology
        self.network = Network(self.scheduler, self.topology)

    def now(self) -> float:
        return self.scheduler.now()

    def rng(self, name: str):
        """A random stream derived from the environment seed and ``name``."""
        return derive_rng(self.seed, name)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        self.scheduler.run(until=until, max_events=max_events)

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        self.scheduler.run_until_idle(max_events=max_events)
