"""The binding API (Section 5.1).

A binding exposes exactly two methods to the library:

* :meth:`Binding.consistency_levels` — the levels the underlying stack
  offers, ordered weakest to strongest.  They are a property of the stack:
  a client asks once and keeps the answer;
* :meth:`Binding.submit_operation` — execute an operation and invoke the
  callback once per requested level as results become available.  The
  requested levels arrive as an immutable, validated sequence.

The callback signature is ``callback(level, value, metadata=None, error=None)``:

* ``level`` — the :class:`~repro.core.consistency.ConsistencyLevel` this
  result satisfies;
* ``value`` — the operation result at that level;
* ``metadata`` — optional dict (answering replica, quorum size, bytes on the
  wire, ``is_confirmation`` for the ``*CC`` optimization, ...);
* ``error`` — an exception if the operation failed at that level; when set,
  ``value`` is ignored.

The callback may be a :class:`~repro.core.correctable.Correctable` — a
:class:`~repro.core.client.CorrectableClient` passes the operation's own
(calling it is :meth:`Correctable.deliver`).  A binding whose storage client
completes into a sink the Correctable implements may hand it over as that
sink (the ZooKeeper binding does); any binding may just call it.
"""

from __future__ import annotations

import abc
from typing import Callable, Iterable, List, Optional, Sequence

from repro.core.consistency import (
    ConsistencyLevel,
    sort_levels,
    validate_levels,
)
from repro.core.errors import BindingError, UnsupportedOperationError
from repro.core.operations import Operation

#: ``callback(level, value, metadata=None, error=None)``
CallbackType = Callable[..., None]


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
                         callback: CallbackType) -> None:
        """Execute ``operation``, invoking ``callback`` once per level in ``levels``."""

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

    def reject_unsupported(self, operation: Operation,
                           levels: List[ConsistencyLevel],
                           callback: CallbackType) -> None:
        """Report an unsupported operation kind through ``callback``.

        Delivers one :class:`UnsupportedOperationError` at the strongest
        requested level (the level that would have closed the Correctable),
        so the caller's error path fires exactly once.
        """
        strongest = sort_levels(levels)[-1] if levels else self.strongest_level()
        callback(strongest, None,
                 error=self.unsupported_operation(operation))

    def unsupported_operation(self, operation: Operation
                              ) -> UnsupportedOperationError:
        """The uniform error for an operation kind this binding lacks."""
        return UnsupportedOperationError(type(self).__name__, operation.name)
