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
from typing import Any, Callable, List, Optional, Tuple

from repro.core.consistency import ConsistencyLevel
from repro.core.errors import InvalidStateError
from repro.core.promise import Promise
from repro.core.views import View


class CorrectableState(Enum):
    """Lifecycle of a :class:`Correctable` (Figure 3)."""

    UPDATING = "updating"
    FINAL = "final"
    ERROR = "error"


UpdateCallback = Callable[[View], None]
ErrorCallback = Callable[[BaseException], None]


class Correctable:
    """The progressively improving result of an operation on a replicated object."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._state = CorrectableState.UPDATING
        self._views: List[View] = []
        # Cached snapshots handed out by views() / preliminary_views(); the
        # caches are re-cut only when a new view arrived since the last call,
        # so polling a hot Correctable copies nothing.
        self._views_tuple: Optional[Tuple[View, ...]] = None
        self._prelim_tuple: Optional[Tuple[View, ...]] = None
        self._error: Optional[BaseException] = None
        self._update_callbacks: List[UpdateCallback] = []
        self._final_callbacks: List[UpdateCallback] = []
        self._error_callbacks: List[ErrorCallback] = []
        self._clock = clock
        #: Updates that arrived after the Correctable closed (late/out-of-order
        #: deliveries); they are dropped but counted for observability.
        self.discarded_updates = 0

    # -- state inspection --------------------------------------------------
    @property
    def state(self) -> CorrectableState:
        return self._state

    def is_updating(self) -> bool:
        return self._state is CorrectableState.UPDATING

    def is_final(self) -> bool:
        return self._state is CorrectableState.FINAL

    def is_error(self) -> bool:
        return self._state is CorrectableState.ERROR

    def is_done(self) -> bool:
        return self._state is not CorrectableState.UPDATING

    def views(self) -> Tuple[View, ...]:
        """Every view delivered so far, in arrival order (final last).

        Returns an immutable snapshot; repeated calls between deliveries
        return the *same* cached tuple, so hot paths that poll a
        Correctable never copy the view list (views are only ever
        appended, never removed, so a length check suffices to detect a
        stale cache).
        """
        cached = self._views_tuple
        if cached is None or len(cached) != len(self._views):
            cached = self._views_tuple = tuple(self._views)
        return cached

    def latest_view(self) -> Optional[View]:
        """The most recent view, or None if nothing has arrived yet."""
        return self._views[-1] if self._views else None

    def preliminary_views(self) -> Tuple[View, ...]:
        """All views except the final one (immutable snapshot, cached)."""
        if self._state is CorrectableState.FINAL and self._views:
            cached = self._prelim_tuple
            if cached is None:
                # No further views can arrive once FINAL: cut once, keep.
                cached = self._prelim_tuple = self.views()[:-1]
            return cached
        return self.views()

    def final_view(self) -> View:
        """The final view.

        Raises:
            InvalidStateError: if the Correctable has not closed with a value.
        """
        if self._state is CorrectableState.ERROR:
            assert self._error is not None
            raise self._error
        if self._state is not CorrectableState.FINAL:
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
            self._update_callbacks.append(on_update)
            for view in self.preliminary_views():
                on_update(view)
        if on_final is not None:
            if self._state is CorrectableState.FINAL:
                on_final(self._views[-1])
            else:
                self._final_callbacks.append(on_final)
        if on_error is not None:
            if self._state is CorrectableState.ERROR:
                assert self._error is not None
                on_error(self._error)
            else:
                self._error_callbacks.append(on_error)
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
    def _now(self) -> Optional[float]:
        return self._clock() if self._clock is not None else None

    def update(self, value: Any, consistency: ConsistencyLevel,
               metadata: Optional[dict] = None) -> Optional[View]:
        """Deliver a preliminary view (updating → updating transition).

        Late updates arriving after the Correctable closed are dropped and
        counted in :attr:`discarded_updates`.
        """
        if self._state is not CorrectableState.UPDATING:
            self.discarded_updates += 1
            return None
        view = View(value=value, consistency=consistency,
                    timestamp=self._now(), metadata=metadata or {})
        self._views.append(view)
        for callback in list(self._update_callbacks):
            callback(view)
        return view

    def close(self, value: Any, consistency: ConsistencyLevel,
              metadata: Optional[dict] = None,
              is_confirmation: bool = False) -> View:
        """Deliver the final view (updating → final transition)."""
        if self._state is not CorrectableState.UPDATING:
            raise InvalidStateError(
                f"correctable already {self._state.value}; cannot close")
        view = View(value=value, consistency=consistency,
                    timestamp=self._now(), metadata=metadata or {},
                    is_confirmation=is_confirmation)
        self._views.append(view)
        self._state = CorrectableState.FINAL
        callbacks = list(self._final_callbacks)
        self._clear_callbacks()
        for callback in callbacks:
            callback(view)
        return view

    def fail(self, error: BaseException) -> None:
        """Close with an error (updating → error transition)."""
        if self._state is not CorrectableState.UPDATING:
            raise InvalidStateError(
                f"correctable already {self._state.value}; cannot fail")
        self._state = CorrectableState.ERROR
        self._error = error
        callbacks = list(self._error_callbacks)
        self._clear_callbacks()
        for callback in callbacks:
            callback(error)

    def _clear_callbacks(self) -> None:
        self._update_callbacks = []
        self._final_callbacks = []
        self._error_callbacks = []

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

