"""The binding API (Section 5.1).

A binding exposes exactly two methods to the library:

* :meth:`Binding.consistency_levels` — the levels the underlying stack
  offers, ordered weakest to strongest.  They are a property of the stack:
  a client asks once and keeps the answer;
* :meth:`Binding.submit_operation` — execute an operation and complete
  its :class:`~repro.core.correctable.Correctable`.  The requested levels
  arrive as an immutable, validated sequence, weakest first; they are the
  Correctable's own.

The Correctable is a sink (:mod:`repro.core.sink`): a preliminary answer
is the view at the weakest requested level, the final answer closes at the
strongest, an error fails it, and whatever arrives after it closed is
dropped.  A binding whose storage client completes into a sink hands the
Correctable on (Cassandra, ZooKeeper); the others call the three methods
themselves (``latency_ms`` is the delay they model) or, to label a view
with a level of their own, its ``update`` / ``close``.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Iterable, List, Optional, Sequence

from repro.core.consistency import (
    ConsistencyLevel,
    sort_levels,
    validate_levels,
)
from repro.core.correctable import Correctable
from repro.core.errors import (BindingError, OperationError,
                               UnsupportedOperationError)
from repro.core.operations import Operation
from repro.sim.scheduler import Scheduler


def complete_after(scheduler: Optional[Scheduler], delay_ms: float,
                   execute: Callable[[Operation, bool], Any],
                   operation: Operation, weak: bool,
                   correctable: Correctable) -> None:
    """``execute(operation, weak)`` after ``delay_ms`` (at once without a
    scheduler), completing ``correctable`` with the answer: a weak one is
    its preliminary, a strong one its final, an ``OperationError`` its
    error."""
    if scheduler is None:
        _complete(execute, operation, weak, correctable, 0.0)
    else:
        scheduler.schedule(delay_ms, _complete, execute, operation, weak,
                           correctable, delay_ms)


def _complete(execute: Callable[[Operation, bool], Any], operation: Operation,
              weak: bool, correctable: Correctable, latency_ms: float) -> None:
    try:
        value = execute(operation, weak)
    except OperationError as exc:
        correctable.deliver_error(exc, latency_ms)
    else:
        if weak:
            correctable.deliver_preliminary(value, None, latency_ms)
        else:
            correctable.deliver_final(value, None, latency_ms)


class Binding(abc.ABC):
    """Abstract base class every storage binding implements."""

    #: Optional callable returning the current time (simulated or wall-clock);
    #: the client uses it to timestamp views.
    clock: Optional[Callable[[], float]] = None

    @abc.abstractmethod
    def consistency_levels(self) -> List[ConsistencyLevel]:
        """The levels this binding offers, ordered weakest to strongest."""

    @abc.abstractmethod
    def submit_operation(self, operation: Operation,
                         levels: Sequence[ConsistencyLevel],
                         correctable: Correctable) -> None:
        """Execute ``operation`` at ``levels``, completing ``correctable``
        (under the cache binding, a sink that stands in for it)."""

    def supports(self, level: ConsistencyLevel) -> bool:
        """Whether this binding offers ``level``."""
        return level in self.consistency_levels()

    # -- shared level/operation validation ----------------------------------
    # Every concrete binding used to hand-roll these checks; they live here
    # so the error type and message are uniform across bindings.

    def strongest_level(self) -> ConsistencyLevel:
        """The strongest level this binding offers."""
        levels = self.consistency_levels()
        if not levels:
            raise BindingError("binding advertises no consistency levels")
        return sort_levels(levels)[-1]

    def validate_levels(self, requested: Iterable[ConsistencyLevel]
                        ) -> List[ConsistencyLevel]:
        """``requested`` sorted weakest-first, checked against the binding.

        Raises ``UnsupportedConsistencyError`` when ``requested`` is empty
        or asks for a level the binding does not advertise, and
        ``BindingError`` when the binding advertises nothing at all (see
        :func:`repro.core.consistency.validate_levels`).
        """
        return validate_levels(requested, self.consistency_levels())

    def unsupported_operation(self, operation: Operation
                              ) -> UnsupportedOperationError:
        """The uniform error for an operation kind this binding lacks (a
        binding fails the Correctable with it)."""
        return UnsupportedOperationError(type(self).__name__, operation.name)
