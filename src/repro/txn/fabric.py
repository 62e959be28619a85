"""Assembly of the transaction layer over a built Cassandra cluster.

``build_txn_fabric`` wires one :class:`TxnParticipant` next to every storage
replica, a coordinator group with deterministic failover order, and a
:class:`TransactionManager` routed through a health-tracking balancer.  The
resulting :class:`TxnFabric` also owns the post-run **atomicity audit**: the
log- and table-level invariant checks (no partial commits, no lost acked
commits, aborted transactions applied nowhere) that every fig16 cell and
the property tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.cluster_spec import BuiltCluster
from repro.sim.topology import Region
from repro.txn.balancer import LoadBalancer
from repro.txn.config import TxnConfig
from repro.txn.coordinator import OwnersFn, TwoPhaseCommitCoordinator
from repro.txn.log import TxnState
from repro.txn.manager import TransactionManager
from repro.txn.participant import TxnParticipant

#: Naming scheme: participant colocated with replica ``cassandra-0-FRK`` is
#: ``txn-part-cassandra-0-FRK``; coordinators are ``txn-coord-{i}-{region}``.
PARTICIPANT_PREFIX = "txn-part-"
COORDINATOR_PREFIX = "txn-coord-"


@dataclass
class TxnFabric:
    """The wired transaction layer: participants, coordinators, manager."""

    built: BuiltCluster
    config: TxnConfig
    participants: Dict[str, TxnParticipant]
    coordinators: List[TwoPhaseCommitCoordinator]
    manager: TransactionManager
    balancer: LoadBalancer
    #: ``key -> participant names``, the routing oracle the coordinators use.
    owners_of: OwnersFn

    # -- lookups -------------------------------------------------------------
    def active_coordinator(self) -> Optional[TwoPhaseCommitCoordinator]:
        """The live coordinator with the highest epoch claiming leadership."""
        actives = [c for c in self.coordinators if c.active and c.alive]
        if not actives:
            return None
        return max(actives, key=lambda c: c.epoch)

    def in_flight(self) -> Dict[str, int]:
        """What is still open, all zero once a healed run has drained."""
        coordinators = self.coordinators
        return {
            "manager_pending": len(self.manager._pending),
            "coordinator_in_flight": sum(len(c.in_flight)
                                         for c in coordinators),
            "deliveries": sum(len(c._deliveries) for c in coordinators),
            "in_doubt": sum(len(c.takeover.round.in_doubt)
                            for c in coordinators if c.takeover.recovering),
            "locks": sum(len(p.locks) for p in self.participants.values()),
        }

    # -- recovery metrics ----------------------------------------------------
    def time_to_recover_ms(self) -> Optional[float]:
        """Duration of the most recent completed coordinator takeover."""
        durations = [t for t in (c.takeover.time_to_recover_ms()
                                 for c in self.coordinators) if t is not None]
        return durations[-1] if durations else None

    def total_takeovers(self) -> int:
        return sum(c.takeover.takeovers for c in self.coordinators)

    # -- atomicity audit -----------------------------------------------------
    def audit(self) -> Dict[str, Any]:
        """Check the atomicity invariants against logs and replica tables.

        Returns a dict of violation counts (all zero on a correct run):

        * ``partial_commits`` — transactions some participant committed and
          another aborted;
        * ``lost_acked_commits`` — client-acked commits missing a commit
          record or table application on some owner;
        * ``aborted_applied`` — aborted transactions whose writes reached a
          replica table;
        * ``acked_abort_committed`` — client-acked aborts that nevertheless
          committed somewhere;
        * ``stuck_locks`` / ``in_doubt`` — prepare locks or undecided
          transactions still outstanding (a drained, healed run has none).
        """
        states_by_txn: Dict[str, set] = {}
        for participant in self.participants.values():
            for record in participant.log.records():
                states_by_txn.setdefault(record.txn_id, set()).add(record.state)
        partial_commits = [
            txn_id for txn_id, states in sorted(states_by_txn.items())
            if TxnState.COMMITTED in states and TxnState.ABORTED in states]

        lost_acked = []
        for txn_id, info in sorted(self.manager.acked_commits.items()):
            timestamp = tuple(info["timestamp"])
            for key, _value in sorted(info["writes"].items()):
                for owner in self.owners_of(key):
                    participant = self.participants[owner]
                    record = participant.log.get(txn_id)
                    if record is None or record.state != TxnState.COMMITTED:
                        lost_acked.append((txn_id, owner, key, "no-record"))
                        continue
                    stored = participant.replica.table.get(key)
                    if stored is None or stored.timestamp < timestamp:
                        lost_acked.append((txn_id, owner, key, "not-applied"))

        aborted_applied = []
        for name, participant in sorted(self.participants.items()):
            for record in participant.log.records():
                if record.state == TxnState.ABORTED \
                        and record.txn_id in participant.applied:
                    aborted_applied.append((record.txn_id, name))

        acked_abort_committed = [
            txn_id for txn_id in sorted(self.manager.acked_aborts)
            if TxnState.COMMITTED in states_by_txn.get(txn_id, set())]

        stuck_locks = sum(len(p.locks) for p in self.participants.values())
        in_doubt = sum(len(p.log.in_doubt()) for p in self.participants.values())

        return {
            "partial_commits": len(partial_commits),
            "partial_commit_txns": partial_commits,
            "lost_acked_commits": len(lost_acked),
            "lost_acked_details": lost_acked,
            "aborted_applied": len(aborted_applied),
            "aborted_applied_details": aborted_applied,
            "acked_abort_committed": len(acked_abort_committed),
            "stuck_locks": stuck_locks,
            "in_doubt": in_doubt,
        }

    def assert_atomic(self, allow_in_doubt: bool = False) -> Dict[str, Any]:
        """Run :meth:`audit` and raise on any hard invariant violation."""
        report = self.audit()
        problems = []
        if report["partial_commits"]:
            problems.append(f"partial commits: {report['partial_commit_txns']}")
        if report["lost_acked_commits"]:
            problems.append(
                f"lost acked commits: {report['lost_acked_details'][:5]}")
        if report["aborted_applied"]:
            problems.append(
                f"aborted txns applied: {report['aborted_applied_details'][:5]}")
        if report["acked_abort_committed"]:
            problems.append(
                f"acked aborts committed: {report['acked_abort_committed']}")
        if not allow_in_doubt and (report["stuck_locks"] or report["in_doubt"]):
            problems.append(
                f"undrained state: {report['stuck_locks']} locks, "
                f"{report['in_doubt']} in-doubt txns")
        if problems:
            raise AssertionError("atomicity audit failed: " +
                                 "; ".join(problems))
        return report


def build_txn_fabric(built: BuiltCluster, config: Optional[TxnConfig] = None,
                     coordinator_count: int = 2,
                     manager_region: str = Region.IRL,
                     coordinator_regions: Sequence[str] = (
                         Region.FRK, Region.IRL, Region.VRG),
                     ) -> TxnFabric:
    """Wire the transaction layer onto a built cluster.

    Construction order (participants → coordinators → manager) is fixed:
    node registration order is part of the determinism contract.
    """
    if coordinator_count < 1:
        raise ValueError("need at least one coordinator")
    config = config if config is not None else TxnConfig()
    env = built.env
    cluster = built.cluster

    participants: Dict[str, TxnParticipant] = {}
    for replica in cluster.replicas:
        name = PARTICIPANT_PREFIX + replica.name
        participants[name] = TxnParticipant(
            name, replica.region, env.network, replica, config)

    coordinator_names = [
        f"{COORDINATOR_PREFIX}{i}-{coordinator_regions[i % len(coordinator_regions)]}"
        for i in range(coordinator_count)]

    def owners_of(key: str) -> Tuple[str, ...]:
        return tuple(PARTICIPANT_PREFIX + name
                     for name in cluster.partitioner.replicas_for(key))

    coordinators: List[TwoPhaseCommitCoordinator] = []
    for i, name in enumerate(coordinator_names):
        region = coordinator_regions[i % len(coordinator_regions)]
        coordinators.append(TwoPhaseCommitCoordinator(
            name, region, env.network, config, index=i,
            peers=coordinator_names, participants=list(participants),
            owners_of=owners_of))

    manager = TransactionManager(
        f"txn-client-{manager_region}", manager_region, env.network,
        coordinator_names, config)

    return TxnFabric(built=built, config=config, participants=participants,
                     coordinators=coordinators, manager=manager,
                     balancer=manager.balancer, owners_of=owners_of)


def txn_aliases(fabric: TxnFabric) -> Dict[str, str]:
    """Selector → node-name map for the fault injector.

    ``txn-coordinator:<i>`` follows the coordinator failover order (0 is the
    initially active one); ``txn-participant:<i>`` follows replica order.
    """
    aliases = {f"txn-coordinator:{i}": coord.name
               for i, coord in enumerate(fabric.coordinators)}
    for i, replica in enumerate(fabric.built.cluster.replicas):
        aliases[f"txn-participant:{i}"] = PARTICIPANT_PREFIX + replica.name
    return aliases
