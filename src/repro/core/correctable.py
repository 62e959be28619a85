"""Correctable: a placeholder for an incrementally refined result.

A Correctable starts in the *updating* state.  Preliminary views trigger
``on_update`` callbacks and keep the Correctable updating; the final view (or
an error) closes it, moving it to *final* (or *error*) and firing the
corresponding callbacks (Figure 3 of the paper).

The two central methods are :meth:`Correctable.set_callbacks` and
:meth:`Correctable.speculate`; the latter captures the speculation pattern of
Listing 3 and is implemented in :mod:`repro.core.speculation`.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Callable, List, Optional, Tuple, Union

from repro.core.consistency import ConsistencyLevel
from repro.core.errors import InvalidStateError, OperationError
from repro.core.promise import Promise
from repro.core.views import View


class CorrectableState(Enum):
    """Lifecycle of a :class:`Correctable` (Figure 3)."""

    UPDATING = "updating"
    FINAL = "final"
    ERROR = "error"


_UPDATING = CorrectableState.UPDATING
_FINAL = CorrectableState.FINAL
_ERROR = CorrectableState.ERROR

UpdateCallback = Callable[[View], None]
ErrorCallback = Callable[[BaseException], None]


class Correctable:
    """The progressively improving result of an operation on a replicated object.

    Also where the operation completes: the client hands it to the binding
    as the operation's sink (:mod:`repro.core.sink`), and the binding hands
    it on to its store or completes it itself.  One per operation, hence
    the slots and the tuples.
    """

    __slots__ = ("_state", "_views", "_prelims", "_error",
                 "_update_callbacks", "_final_callbacks", "_error_callbacks",
                 "_clock", "_levels", "discarded_updates")

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 levels: Tuple[ConsistencyLevel, ...] = ()) -> None:
        self._state = _UPDATING
        #: Every view so far; a tuple, so views() is the snapshot itself.
        self._views: Tuple[View, ...] = ()
        #: ``_views`` as it was when the final view arrived.
        self._prelims: Tuple[View, ...] = ()
        self._error: Optional[BaseException] = None
        self._update_callbacks: Tuple[UpdateCallback, ...] = ()
        self._final_callbacks: Tuple[UpdateCallback, ...] = ()
        self._error_callbacks: Tuple[ErrorCallback, ...] = ()
        self._clock = clock
        #: The requested levels, weakest first (empty when no client
        #: invocation made this Correctable: derived ones, transactions).
        self._levels = levels
        #: Updates that arrived after the Correctable closed (late/out-of-order
        #: deliveries); they are dropped but counted for observability.
        self.discarded_updates = 0

    # -- state inspection --------------------------------------------------
    @property
    def state(self) -> CorrectableState:
        return self._state

    def is_updating(self) -> bool:
        return self._state is _UPDATING

    def is_final(self) -> bool:
        return self._state is _FINAL

    def is_error(self) -> bool:
        return self._state is _ERROR

    def is_done(self) -> bool:
        return self._state is not _UPDATING

    def views(self) -> Tuple[View, ...]:
        """Every view delivered so far, in arrival order (final last): an
        immutable snapshot, the *same* tuple until the next delivery."""
        return self._views

    def latest_view(self) -> Optional[View]:
        """The most recent view, or None if nothing has arrived yet."""
        return self._views[-1] if self._views else None

    def preliminary_views(self) -> Tuple[View, ...]:
        """All views except the final one (immutable snapshot)."""
        return self._prelims if self._state is _FINAL else self._views

    def final_view(self) -> View:
        """The final view.

        Raises:
            InvalidStateError: if the Correctable has not closed with a value.
        """
        if self._state is _ERROR:
            assert self._error is not None
            raise self._error
        if self._state is not _FINAL:
            raise InvalidStateError("correctable has not closed yet")
        return self._views[-1]

    def value(self) -> Any:
        """The final value (shorthand for ``final_view().value``)."""
        return self.final_view().value

    @property
    def error(self) -> Optional[BaseException]:
        return self._error

    # -- callbacks (application-facing) -------------------------------------
    def set_callbacks(self,
                      on_update: Optional[UpdateCallback] = None,
                      on_final: Optional[UpdateCallback] = None,
                      on_error: Optional[ErrorCallback] = None) -> "Correctable":
        """Attach callbacks for the three state transitions.

        Callbacks registered after the corresponding transition already
        happened fire immediately (Promise semantics), so application code
        never races with the storage.  Returns ``self`` for chaining.
        """
        if on_update is not None:
            self._update_callbacks += (on_update,)
            for view in (self._prelims if self._state is _FINAL
                         else self._views):
                on_update(view)
        if on_final is not None:
            if self._state is _FINAL:
                on_final(self._views[-1])
            else:
                self._final_callbacks += (on_final,)
        if on_error is not None:
            if self._state is _ERROR:
                assert self._error is not None
                on_error(self._error)
            else:
                self._error_callbacks += (on_error,)
        return self

    def on_update(self, callback: UpdateCallback) -> "Correctable":
        """Shorthand for ``set_callbacks(on_update=callback)``."""
        return self.set_callbacks(on_update=callback)

    def on_final(self, callback: UpdateCallback) -> "Correctable":
        """Shorthand for ``set_callbacks(on_final=callback)``."""
        return self.set_callbacks(on_final=callback)

    def on_error(self, callback: ErrorCallback) -> "Correctable":
        """Shorthand for ``set_callbacks(on_error=callback)``."""
        return self.set_callbacks(on_error=callback)

    # -- transitions (driven by the library / bindings) ----------------------
    def update(self, value: Any, consistency: ConsistencyLevel,
               metadata: Optional[dict] = None) -> Optional[View]:
        """Deliver a preliminary view (updating → updating transition).

        Late updates arriving after the Correctable closed are dropped and
        counted in :attr:`discarded_updates`.
        """
        if self._state is not _UPDATING:
            self.discarded_updates += 1
            return None
        clock = self._clock
        view = View(value, consistency, None if clock is None else clock(),
                    False, metadata)
        self._views += (view,)
        # A callback registered while these run replays this view itself.
        for callback in self._update_callbacks:
            callback(view)
        return view

    def close(self, value: Any, consistency: ConsistencyLevel,
              metadata: Optional[dict] = None,
              is_confirmation: bool = False) -> View:
        """Deliver the final view (updating → final transition)."""
        if self._state is not _UPDATING:
            raise InvalidStateError(
                f"correctable already {self._state.value}; cannot close")
        clock = self._clock
        view = View(value, consistency, None if clock is None else clock(),
                    is_confirmation, metadata)
        self._prelims = self._views
        self._views += (view,)
        self._state = _FINAL
        callbacks = self._final_callbacks
        self._update_callbacks = self._final_callbacks = \
            self._error_callbacks = ()
        for callback in callbacks:
            callback(view)
        return view

    def fail(self, error: BaseException) -> None:
        """Close with an error (updating → error transition)."""
        if self._state is not _UPDATING:
            raise InvalidStateError(
                f"correctable already {self._state.value}; cannot fail")
        self._state = _ERROR
        self._error = error
        callbacks = self._error_callbacks
        self._update_callbacks = self._final_callbacks = \
            self._error_callbacks = ()
        for callback in callbacks:
            callback(error)

    # -- completion (the operation's sink) -----------------------------------
    def deliver_preliminary(self, value: Any, stamp: Any, latency_ms: float,
                            source: Optional[str] = None) -> None:
        """Sink (:mod:`repro.core.sink`): the store's preliminary answer is
        the view at the weakest requested level."""
        levels = self._levels
        metadata = {"latency_ms": latency_ms, "preliminary": True}
        if len(levels) == 1:
            if self._state is _UPDATING:
                self.close(value, levels[0], metadata)
        elif self._state is _UPDATING:
            # update(), inlined: this runs once per ICG operation.
            clock = self._clock
            view = View(value, levels[0],
                        None if clock is None else clock(), False, metadata)
            self._views += (view,)
            for callback in self._update_callbacks:
                callback(view)
        else:
            self.discarded_updates += 1

    def deliver_final(self, value: Any, stamp: Any, latency_ms: float,
                      is_confirmation: bool = False,
                      degraded: bool = False) -> None:
        """Sink: the store's final answer closes at the strongest level."""
        if self._state is _UPDATING:
            self.close(value, self._levels[-1],
                       {"latency_ms": latency_ms, "preliminary": False,
                        "degraded": degraded}, is_confirmation)

    def deliver_error(self, error: Union[str, BaseException],
                      latency_ms: float) -> None:
        """Sink: the operation failed, or ran out of retries; a message
        fails it with an :class:`OperationError`, an exception as is."""
        if self._state is _UPDATING:
            self.fail(error if isinstance(error, BaseException)
                      else OperationError(error))

    # -- derived correctables ------------------------------------------------
    def speculate(self, speculation_fn: Callable[[Any], Any],
                  abort_fn: Optional[Callable[[Any], None]] = None,
                  stats: Optional["SpeculationStats"] = None) -> "Correctable":
        """Speculate on preliminary views (Listing 3).

        ``speculation_fn`` runs on every new view whose value differs from the
        previously speculated one.  The returned Correctable closes with the
        speculation output computed on an input matching the final view; if no
        preliminary matched, the function re-runs on the final value and
        ``abort_fn`` (if given) undoes the superseded speculation's effects.
        """
        from repro.core.speculation import attach_speculation
        return attach_speculation(self, speculation_fn, abort_fn, stats)

    def map(self, fn: Callable[[Any], Any]) -> "Correctable":
        """A Correctable whose every view is ``fn(view.value)``."""
        mapped = Correctable(clock=self._clock)

        def _on_update(view: View) -> None:
            mapped.update(fn(view.value), view.consistency,
                          metadata=dict(view.metadata))

        def _on_final(view: View) -> None:
            mapped.close(fn(view.value), view.consistency,
                         metadata=dict(view.metadata),
                         is_confirmation=view.is_confirmation)

        self.set_callbacks(on_update=_on_update, on_final=_on_final,
                           on_error=mapped.fail)
        return mapped

    def final_promise(self) -> Promise:
        """A :class:`Promise` for the final value."""
        promise = Promise()
        self.set_callbacks(
            on_final=lambda view: promise.resolve(view.value),
            on_error=promise.reject,
        )
        return promise

    # -- combinators -----------------------------------------------------------
    @staticmethod
    def resolved(value: Any, consistency: ConsistencyLevel) -> "Correctable":
        """A Correctable already closed with ``value``."""
        correctable = Correctable()
        correctable.close(value, consistency)
        return correctable

    @staticmethod
    def all(correctables: List["Correctable"]) -> Promise:
        """A Promise for the list of all final values (fails on first error)."""
        return Promise.all([c.final_promise() for c in correctables])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Correctable(state={self._state.value}, "
                f"views={len(self._views)})")

