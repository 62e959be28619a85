"""Views: the values a Correctable delivers.

A :class:`View` pairs an operation result with the consistency level it
satisfies and bookkeeping used by the evaluation harness (arrival time,
whether the storage sent a full value or just a confirmation message).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.consistency import ConsistencyLevel


class View:
    """One incremental view on the result of an operation.  Slotted by hand
    (one or two are built per operation, and a slotted dataclass needs
    Python 3.10)."""

    __slots__ = ("value", "consistency", "timestamp", "is_confirmation",
                 "metadata")

    def __init__(self, value: Any, consistency: ConsistencyLevel,
                 timestamp: Optional[float] = None,
                 is_confirmation: bool = False,
                 metadata: Optional[Dict[str, Any]] = None) -> None:
        self.value = value
        self.consistency = consistency
        #: Simulated (or wall-clock) time at which the view was delivered.
        self.timestamp = timestamp
        #: True when the storage replaced the payload with a small
        #: confirmation because the final value equals the preliminary one
        #: (the ``*CC`` optimization of Section 5.2).
        self.is_confirmation = is_confirmation
        #: Free-form binding metadata (replica that answered, quorum size, ...).
        self.metadata = {} if metadata is None else metadata

    def same_value(self, other: "View") -> bool:
        """Whether two views carry the same result value."""
        return self.value == other.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", confirmation" if self.is_confirmation else ""
        return (f"View({self.value!r}, {self.consistency.name}"
                f", t={self.timestamp}{flag})")
