"""Participant-side transaction log.

The log is the stable storage of the protocol: a participant that crashes
keeps its log (and the locks derivable from it), and the records are what a
takeover coordinator reads to drive every in-flight transaction to a
consistent outcome; a takeover reply carries copies of them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple


class TxnState:
    """Terminal and intermediate states a logged transaction can be in."""

    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class TxnLogRecord:
    """One transaction's entry in a participant log.

    ``writes`` holds only the keys this participant owns.  ``participants``
    and ``client`` replicate the transaction's membership into every record
    so a takeover coordinator can reconstruct the full picture from any
    single prepared record.
    """

    txn_id: str
    state: str
    writes: Dict[str, Any]
    participants: Tuple[str, ...]
    client: str
    #: Commit timestamp ``(time_ms, coordinator, seq)``; None until committed.
    timestamp: Optional[Tuple[float, str, int]] = None


class ParticipantLog:
    """Append-style transaction log with one live record per transaction."""

    def __init__(self) -> None:
        self._records: Dict[str, TxnLogRecord] = {}
        self.appends = 0

    def get(self, txn_id: str) -> Optional[TxnLogRecord]:
        return self._records.get(txn_id)

    def state(self, txn_id: str) -> Optional[str]:
        record = self._records.get(txn_id)
        return record.state if record is not None else None

    def record_prepared(self, txn_id: str, writes: Dict[str, Any],
                        participants: Tuple[str, ...],
                        client: str) -> TxnLogRecord:
        record = TxnLogRecord(txn_id=txn_id, state=TxnState.PREPARED,
                              writes=dict(writes), participants=participants,
                              client=client)
        self._records[txn_id] = record
        self.appends += 1
        return record

    def record_committed(self, txn_id: str,
                         timestamp: Tuple[float, str, int]) -> TxnLogRecord:
        record = self._records[txn_id]
        record.state = TxnState.COMMITTED
        record.timestamp = timestamp
        self.appends += 1
        return record

    def record_aborted(self, txn_id: str) -> TxnLogRecord:
        record = self._records.get(txn_id)
        if record is None:
            # An abort can arrive for a transaction this participant never
            # prepared (it voted no, or the prepare never reached it);
            # logging it keeps the decision durable for idempotent acks.
            record = TxnLogRecord(txn_id=txn_id, state=TxnState.ABORTED,
                                  writes={}, participants=(), client="")
            self._records[txn_id] = record
        else:
            record.state = TxnState.ABORTED
        self.appends += 1
        return record

    def records(self) -> List[TxnLogRecord]:
        """All records in txn-id order (deterministic iteration)."""
        return [self._records[txn_id] for txn_id in sorted(self._records)]

    def in_doubt(self) -> List[TxnLogRecord]:
        """Prepared records with no decision — what blocks a takeover."""
        return [r for r in self.records() if r.state == TxnState.PREPARED]

    def snapshot(self) -> List[TxnLogRecord]:
        """Copies of every record, for a takeover state reply (what the
        log logs after the reply left does not reach it)."""
        return [replace(record) for record in self.records()]

    def __len__(self) -> int:
        return len(self._records)
