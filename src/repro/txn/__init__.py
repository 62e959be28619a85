"""Distributed transactions: 2PC with coordinator failover (ROADMAP item 3).

A transaction layer over the simulated Cassandra cluster — multi-key atomic
writes driven by a coordinator group with deterministic election/failover,
participant-side prepare/commit/abort logging with per-key locks, a
health-tracking load balancer, and a speculative ``PREPARED`` preliminary
view surfaced through the Correctable API.
"""

from repro.txn.balancer import LoadBalancer
from repro.txn.config import TxnConfig
from repro.txn.coordinator import TwoPhaseCommitCoordinator
from repro.txn.fabric import (
    COORDINATOR_PREFIX, PARTICIPANT_PREFIX, TxnFabric, build_txn_fabric,
    txn_aliases,
)
from repro.txn.log import ParticipantLog, TxnLogRecord, TxnState
from repro.txn.manager import (
    PREPARED, PreparedViewStats, TransactionError, TransactionManager,
)
from repro.txn.participant import TxnParticipant
from repro.txn.takeover import ABORT, COMMIT

__all__ = [
    "ABORT",
    "COMMIT",
    "COORDINATOR_PREFIX",
    "LoadBalancer",
    "PARTICIPANT_PREFIX",
    "PREPARED",
    "ParticipantLog",
    "PreparedViewStats",
    "TransactionError",
    "TransactionManager",
    "TwoPhaseCommitCoordinator",
    "TxnConfig",
    "TxnFabric",
    "TxnLogRecord",
    "TxnParticipant",
    "TxnState",
    "build_txn_fabric",
    "txn_aliases",
]
