"""A completion sink that records what a store delivers (importable as
``sinks``, like ``fault_slices``).

Every delivery is kept in ``calls`` as a named tuple whose first field is
its kind and whose other fields are the protocol's arguments in order
(:mod:`repro.core.sink`), so it compares equal to the plain tuple
``(kind, *args)``.
"""

from __future__ import annotations

from typing import Any, Callable, List, NamedTuple, Optional, Union


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
    matches_preliminary: Optional[bool]


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
        self.calls.append(Preliminary("preliminary", value, stamp,
                                      latency_ms, source))

    def deliver_final(self, value, stamp, latency_ms, is_confirmation=False,
                      degraded=False, matches_preliminary=None):
        self._answer(Final("final", value, stamp, latency_ms,
                           is_confirmation, degraded, matches_preliminary))

    def deliver_error(self, error, latency_ms):
        self._answer(Error("error", error, latency_ms))

    def _answer(self, answer) -> None:
        self.calls.append(answer)
        if self.then is not None:
            self.then(answer)

    def kinds(self) -> List[str]:
        return [call[0] for call in self.calls]

    @property
    def answers(self) -> List[tuple]:
        """The finals and errors, in arrival order."""
        return [call for call in self.calls if call[0] != "preliminary"]

    @property
    def preliminaries(self) -> List[Preliminary]:
        return [call for call in self.calls if call[0] == "preliminary"]
