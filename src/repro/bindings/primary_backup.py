"""Primary-backup binding (Listing 7 of the paper).

:class:`PrimaryBackupStore` keeps an authoritative *primary* copy and a
*backup* copy that lags behind by a configurable replication delay.
:class:`PrimaryBackupBinding` maps ``WEAK`` to the closest backup and
``STRONG`` to the primary, exactly like the paper's example binding
(``queryClosestBackup`` / ``queryPrimary``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.bindings.base import Binding, complete_after
from repro.core.consistency import ConsistencyLevel, STRONG, WEAK
from repro.core.correctable import Correctable
from repro.core.errors import OperationError
from repro.core.operations import Operation
from repro.sim.scheduler import Scheduler
from repro.sim.topology import non_negative


class PrimaryBackupStore:
    """A two-copy store: writes hit the primary and reach the backup later."""

    def __init__(self, scheduler: Optional[Scheduler] = None,
                 replication_lag_ms: float = 30.0) -> None:
        self.scheduler = scheduler
        self.replication_lag_ms = non_negative("replication_lag_ms",
                                               replication_lag_ms)
        self._primary: Dict[str, Any] = {}
        self._backup: Dict[str, Any] = {}
        self.writes = 0
        self.pending_replications = 0

    def write(self, key: str, value: Any) -> None:
        """Apply a write to the primary and propagate to the backup (lagged)."""
        self.writes += 1
        self._primary[key] = value
        if self.scheduler is None:
            self._backup[key] = value
            return
        self.pending_replications += 1
        self.scheduler.schedule(self.replication_lag_ms,
                                self._apply_backup, key, value)

    def _apply_backup(self, key: str, value: Any) -> None:
        self._backup[key] = value
        self.pending_replications -= 1

    def read_primary(self, key: str) -> Any:
        if key not in self._primary:
            raise OperationError(f"key not found on primary: {key!r}")
        return self._primary[key]

    def read_backup(self, key: str) -> Any:
        if key in self._backup:
            return self._backup[key]
        # A backup that has never heard of the key answers like the primary
        # would for a missing key.
        raise OperationError(f"key not found on backup: {key!r}")

    def backup_is_stale(self, key: str) -> bool:
        """Whether the backup currently lags the primary for ``key``."""
        return self._backup.get(key) != self._primary.get(key)


class PrimaryBackupBinding(Binding):
    """Two-level binding: WEAK → backup replica, STRONG → primary replica."""

    def __init__(self, store: Optional[PrimaryBackupStore] = None,
                 scheduler: Optional[Scheduler] = None,
                 backup_rtt_ms: float = 4.0,
                 primary_rtt_ms: float = 80.0) -> None:
        if store is None:
            store = PrimaryBackupStore(scheduler=scheduler)
        self.store = store
        self.scheduler = scheduler if scheduler is not None else store.scheduler
        self.backup_rtt_ms = non_negative("backup_rtt_ms", backup_rtt_ms)
        self.primary_rtt_ms = non_negative("primary_rtt_ms", primary_rtt_ms)
        if self.scheduler is not None:
            self.clock = self.scheduler.now

    def consistency_levels(self) -> List[ConsistencyLevel]:
        return [WEAK, STRONG]

    def submit_operation(self, operation: Operation,
                         levels: List[ConsistencyLevel],
                         correctable: Correctable) -> None:
        levels = self.validate_levels(levels)
        if WEAK in levels:
            complete_after(self.scheduler, self.backup_rtt_ms, self._execute,
                           operation, True, correctable)
        if STRONG in levels:
            complete_after(self.scheduler, self.primary_rtt_ms, self._execute,
                           operation, False, correctable)

    def _execute(self, operation: Operation, use_backup: bool) -> Any:
        if operation.name == "read":
            if use_backup:
                return self.store.read_backup(operation.key)
            return self.store.read_primary(operation.key)
        if operation.name == "write":
            value = operation.args[0]
            if not use_backup:
                self.store.write(operation.key, value)
            return value
        raise self.unsupported_operation(operation)
