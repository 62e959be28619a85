"""Ensemble assembly for the simulated ZooKeeper deployment."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.sim.environment import SimEnvironment
from repro.sim.topology import Region
from repro.zookeeper_sim.client import ZKClient
from repro.zookeeper_sim.config import ZooKeeperConfig
from repro.zookeeper_sim.server import ZKServer


class ZooKeeperCluster:
    """A leader + followers ensemble inside one simulation environment."""

    def __init__(self, env: SimEnvironment,
                 leader_region: str = Region.IRL,
                 follower_regions: Sequence[str] = (Region.FRK, Region.VRG),
                 config: Optional[ZooKeeperConfig] = None) -> None:
        self.env = env
        self.config = config if config is not None else ZooKeeperConfig()
        self.leader = ZKServer(f"zk-leader-{leader_region}", leader_region,
                               env.network, self.config)
        self.followers: List[ZKServer] = [
            ZKServer(f"zk-follower-{i}-{region}", region, env.network, self.config)
            for i, region in enumerate(follower_regions)
        ]
        ensemble = [self.leader.name] + [f.name for f in self.followers]
        self.leader.become_leader(ensemble)
        for follower in self.followers:
            follower.become_follower(self.leader.name, ensemble)
        self._servers_by_region: Dict[str, ZKServer] = {}
        for server in self.servers:
            self._servers_by_region.setdefault(server.region, server)
        self._clients: List[ZKClient] = []

    @property
    def servers(self) -> List[ZKServer]:
        return [self.leader] + list(self.followers)

    def enable_failure_detection(self) -> None:
        """Arm heartbeats/elections on every server.

        Requires a config with ``heartbeat_interval_ms > 0`` (e.g.
        ``ZooKeeperConfig.fault_tolerant()``); a no-op otherwise.
        """
        for server in self.servers:
            server.election.enable()

    def current_leader(self) -> Optional[ZKServer]:
        """The live server currently acting as leader (highest epoch wins)."""
        leaders = [s for s in self.servers if s.alive and s.is_leader]
        if not leaders:
            return None
        return max(leaders, key=lambda s: s.epoch)

    def server_names(self) -> List[str]:
        return [server.name for server in self.servers]

    def server_in(self, region: str) -> ZKServer:
        """The ensemble member deployed in ``region`` (leader preferred)."""
        if self.leader.region == region:
            return self.leader
        try:
            return self._servers_by_region[region]
        except KeyError:
            raise KeyError(f"no ZooKeeper server in region {region}") from None

    def add_client(self, name: str, region: str,
                   connect_region: Optional[str] = None,
                   colocated: bool = False,
                   failover: bool = False) -> ZKClient:
        """Create a client in ``region`` connected to a server.

        ``connect_region`` picks the server (defaults to the client's own
        region); ``colocated=True`` places the client on the same host as the
        server, giving loopback latency (used for the ticket retailers that
        sit next to the FRK follower).  ``failover=True`` hands the client
        the whole ensemble so a request timeout can rotate to another server
        (used by the fault experiments with ``config.request_timeout_ms``).
        """
        server = self.server_in(connect_region or region)
        host = server.host if colocated else None
        ensemble = self.server_names() if failover else None
        client = ZKClient(name, region, self.env.network, server.name,
                          self.config, host=host, ensemble=ensemble)
        self._clients.append(client)
        return client

    @property
    def clients(self) -> List[ZKClient]:
        return list(self._clients)

    def in_flight(self) -> Dict[str, int]:
        """What the ensemble still holds for unanswered operations: requests
        open at the clients, writes forwarded to the leader, origins waiting
        for their commit, origins stashed across an election, and proposals
        short of a quorum.  All zero once a run has drained."""
        servers = self.servers
        return {
            "client_pending": sum(len(c._pending) for c in self._clients),
            "forwarded": sum(len(s._forwarded) for s in servers),
            "origin_requests": sum(len(s._origin_requests) for s in servers),
            "orphan_origins": sum(len(s.orphan_origins) for s in servers),
            "proposals": sum(s.tracker.pending_count() for s in servers
                             if s.tracker is not None),
        }

    # -- data loading ------------------------------------------------------------
    def preload_queue(self, queue_path: str, items: Sequence) -> None:
        """Install a queue with ``items`` identically on every server."""
        for server in self.servers:
            if not server.tree.exists(queue_path):
                server.tree.create(queue_path)
            for item in items:
                server.tree.create(f"{queue_path}/item-", data=item,
                                   sequential=True)
