"""Recorded histories of store operations (importable as ``history``).

A :class:`RecordingSink` logs every delivery of the completion protocol
(:mod:`repro.core.sink`) as a named tuple that equals the plain tuple
``(kind, *args)``.  A :class:`History` is a list of :class:`Op`, recording
sinks that also keep their invoke and when each delivery arrived, for
``checkers.py`` (the vocabulary of Aspnes' *Notes on Theory of Distributed
Systems*).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, List, NamedTuple, Optional, Union
from unittest import mock

from repro.cassandra_sim.coordinator import FusedRead
from repro.cassandra_sim.replica import CassandraReplica


class Preliminary(NamedTuple):
    kind: str
    value: Any
    stamp: Any
    latency_ms: float
    source: Optional[str]


class Final(NamedTuple):
    kind: str
    value: Any
    stamp: Any
    latency_ms: float
    is_confirmation: bool
    degraded: bool


class Error(NamedTuple):
    kind: str
    error: Union[str, BaseException]
    latency_ms: float


class RecordingSink:
    """Logs every delivery into ``calls`` (a list of its own, or one shared
    with other sinks); ``then(answer)`` runs after each final or error."""

    def __init__(self, then: Optional[Callable[[Any], None]] = None,
                 calls: Optional[List[tuple]] = None) -> None:
        self.calls: List[tuple] = [] if calls is None else calls
        self.then = then

    def deliver_preliminary(self, value, stamp, latency_ms, source=None):
        self._log(Preliminary("preliminary", value, stamp, latency_ms,
                              source))

    def deliver_final(self, value, stamp, latency_ms, is_confirmation=False,
                      degraded=False):
        self._log(Final("final", value, stamp, latency_ms, is_confirmation,
                        degraded))

    def deliver_error(self, error, latency_ms):
        self._log(Error("error", error, latency_ms))

    def _log(self, call: tuple) -> None:
        self.calls.append(call)
        if call[0] != "preliminary" and self.then is not None:
            self.then(call)

    def kinds(self) -> List[str]:
        return [call[0] for call in self.calls]

    @property
    def answers(self) -> List[tuple]:
        """The finals and errors, in arrival order."""
        return [call for call in self.calls if call[0] != "preliminary"]

    @property
    def preliminaries(self) -> List[Preliminary]:
        return [call for call in self.calls if call[0] == "preliminary"]


class Op(RecordingSink):
    """One operation: its invoke (key, kind, requested ``level``, written
    ``value``, ``icg``), the simulated time ``times[i]`` of each delivery
    ``calls[i]``, passed on to the issuer's ``sink`` if there is one (a
    load runner's record, whose ``icg`` it sets too).  ``arrived_at`` is
    the open loop's arrival (the invoke otherwise).  Per attempt that
    answered while the history observed the store, ``reached`` holds
    ``(answers gathered, quorum asked)`` and, for a read, ``answered``
    holds ``(its newest version, the preliminary it flushed or None)``."""

    def __init__(self, history: "History", kind: str, key: str,
                 level: Optional[int], value: Any, icg: bool,
                 sink: Any) -> None:
        super().__init__()
        self.history, self.kind, self.key = history, kind, key
        self.level, self.value, self.sink, self._icg = level, value, sink, icg
        self.invoked_at = history.now()
        self.arrived_at = getattr(sink, "arrived_at", self.invoked_at)
        self.runner = getattr(sink, "runner", None)
        self.times: List[float] = []
        self.reached: List[tuple] = []
        self.answered: List[tuple] = []

    @property
    def icg(self) -> bool:
        return self._icg

    @icg.setter
    def icg(self, icg: bool) -> None:
        self._icg = self.sink.icg = icg

    def _log(self, call: tuple) -> None:
        self.times.append(self.history.now())
        super()._log(call)
        if self.sink is not None:
            getattr(self.sink, "deliver_" + call[0])(*call[1:])


class History:
    """Every operation issued through it, in invoke order.  ``now`` reads
    the simulated clock; ``initial(key)`` is the key's time-zero value."""

    def __init__(self, now: Callable[[], float],
                 initial: Callable[[str], Any] = lambda key: None) -> None:
        self.now, self.initial = now, initial
        self.ops: List[Op] = []

    def invoke(self, kind: str, key: str, level: Optional[int] = None,
               value: Any = None, icg: bool = False, sink: Any = None) -> Op:
        self.ops.append(Op(self, kind, key, level, value, icg, sink))
        return self.ops[-1]

    def issue(self, issue: Callable) -> Callable:
        """A load runner's ``issue`` that records each operation and
        completes it into the runner's record through the history."""
        def _issue(op_type, key, value, sink, session_id=None):
            issue(op_type, key, value,
                  self.invoke(op_type, key, value=value, sink=sink),
                  session_id)
        return _issue

    @staticmethod
    @contextmanager
    def observe():
        """Inside: when a Cassandra coordinator answers an operation of a
        history, note on it what the attempt had gathered (and, for a
        read, its newest version and flushed preliminary) — omniscient
        state, read off the pooled record at that instant."""
        def decided(method, gathered, asked):
            def answer(replica, rec, degraded):
                op = rec.op.sink
                if isinstance(op, Op):
                    op.reached.append(
                        (getattr(rec, gathered), getattr(rec, asked)))
                    if type(rec) is FusedRead:
                        op.answered.append((rec.best, rec.preliminary
                                            if rec.preliminary_sent else None))
                method(replica, rec, degraded)
            return answer

        with mock.patch.multiple(
                CassandraReplica, _fused_finish_read=decided(
                    CassandraReplica._fused_finish_read, "count", "r"),
                _fused_ack_client=decided(
                    CassandraReplica._fused_ack_client, "ack_count", "w")):
            yield
