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
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.consistency import ConsistencyLevel
from repro.core.errors import InvalidStateError, OperationError
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

    def close_with_view(self, view: View) -> View:
        """Close with an already-constructed :class:`View`."""
        if self._state is not CorrectableState.UPDATING:
            raise InvalidStateError(
                f"correctable already {self._state.value}; cannot close")
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


class LeanCorrectable:
    """Pooled flyweight Correctable for callers with final/value interest.

    The full :class:`Correctable` keeps a view list, three callback lists,
    and a metadata dict per view — none of which a caller that only wants
    the final value (plus at most one callback per transition) ever looks
    at.  ``LeanCorrectable`` is the slab-allocated equivalent behind
    :meth:`repro.core.client.CorrectableClient.invoke_lean`:

    * it **is** a lean completion sink: the storage client's fused protocol
      completes it positionally through the ``deliver_*`` methods below,
      with no response or metadata dicts on the way;
    * the latest value/consistency/timestamp live inline and :class:`View`
      objects are built only on demand (``latest_view`` / ``final_view`` /
      ``views``) — there is no view list;
    * callbacks are single-slot, one per transition, with the same
      fire-immediately-if-already-transitioned Promise semantics as
      :meth:`Correctable.set_callbacks` — enough surface for
      :func:`repro.core.speculation.attach_speculation` to work unchanged;
    * divergence/ICG accounting still sees preliminaries: the (latest)
      preliminary value and latency are retained in
      :attr:`preliminary_value` / :attr:`preliminary_latency_ms`, and late
      deliveries after close are dropped and counted in
      :attr:`discarded_updates`, exactly like the full Correctable;
      :attr:`degraded` says the store closed it from a downgraded quorum.

    Instances recycle through a class-level free list: the owner calls
    :meth:`release` on a finished instance to return it (the pool-leak
    tests assert the acquire/release counters balance at quiesce).
    """

    __slots__ = ("_state", "_clock", "_error", "_value", "_consistency",
                 "_timestamp", "_is_confirmation", "_final_view",
                 "_on_update", "_on_final", "_on_error",
                 "had_preliminary", "preliminary_value",
                 "preliminary_latency_ms", "_preliminary_timestamp",
                 "final_latency_ms", "preliminary_consistency",
                 "final_consistency", "pending_value", "discarded_updates",
                 "degraded")

    _pool: List["LeanCorrectable"] = []
    #: ``[created, reused, recycled]`` — in a list, not class attributes:
    #: assigning a class attribute invalidates the interpreter's attribute
    #: caches for the type, and these move with every operation.
    _counts = [0, 0, 0]

    # -- pooling -------------------------------------------------------------
    @classmethod
    def acquire(cls, clock: Optional[Callable[[], float]] = None
                ) -> "LeanCorrectable":
        pool = cls._pool
        if pool:
            lean = pool.pop()
            cls._counts[1] += 1
        else:
            lean = cls()
            cls._counts[0] += 1
        lean._clock = clock
        lean._state = CorrectableState.UPDATING
        lean._error = None
        lean._value = None
        lean._consistency = None
        lean._timestamp = None
        lean._is_confirmation = False
        lean._final_view = None
        lean._on_update = None
        lean._on_final = None
        lean._on_error = None
        lean.had_preliminary = False
        lean.preliminary_value = None
        lean.preliminary_latency_ms = None
        lean._preliminary_timestamp = None
        lean.final_latency_ms = None
        lean.preliminary_consistency = None
        lean.final_consistency = None
        lean.pending_value = None
        lean.discarded_updates = 0
        lean.degraded = False
        return lean

    @classmethod
    def release(cls, lean: "LeanCorrectable") -> None:
        """Return a finished instance to the pool.

        Only reference-holding fields are scrubbed here (so the pool never
        pins application values); :meth:`acquire` resets everything else.
        """
        lean._value = None
        lean._final_view = None
        lean._error = None
        lean._on_update = None
        lean._on_final = None
        lean._on_error = None
        lean.preliminary_value = None
        lean.pending_value = None
        lean._clock = None
        if len(cls._pool) < 1024:
            cls._counts[2] += 1
            cls._pool.append(lean)

    @classmethod
    def pool_stats(cls) -> Dict[str, int]:
        created, reused, recycled = cls._counts
        return {"created": created, "reused": reused,
                "recycled": recycled, "free": len(cls._pool)}

    # -- state inspection ----------------------------------------------------
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

    @property
    def error(self) -> Optional[BaseException]:
        return self._error

    def views(self) -> Tuple[View, ...]:
        """The retained views, rebuilt on demand (latest preliminary +
        final); the lean pipeline delivers at most one of each."""
        views = []
        if self.had_preliminary:
            views.append(View(value=self.preliminary_value,
                              consistency=self.preliminary_consistency,
                              timestamp=self._preliminary_timestamp))
        if self._state is CorrectableState.FINAL:
            views.append(self.final_view())
        return tuple(views)

    def preliminary_views(self) -> Tuple[View, ...]:
        if self.had_preliminary:
            return (View(value=self.preliminary_value,
                         consistency=self.preliminary_consistency,
                         timestamp=self._preliminary_timestamp),)
        return ()

    def latest_view(self) -> Optional[View]:
        if self._state is CorrectableState.FINAL:
            return self.final_view()
        if self.had_preliminary:
            return View(value=self.preliminary_value,
                        consistency=self.preliminary_consistency,
                        timestamp=self._preliminary_timestamp)
        return None

    def final_view(self) -> View:
        if self._state is CorrectableState.ERROR:
            assert self._error is not None
            raise self._error
        if self._state is not CorrectableState.FINAL:
            raise InvalidStateError("correctable has not closed yet")
        view = self._final_view
        if view is None:
            view = self._final_view = View(
                value=self._value, consistency=self._consistency,
                timestamp=self._timestamp,
                is_confirmation=self._is_confirmation)
        return view

    def value(self) -> Any:
        return self.final_view().value

    # -- callbacks (single-slot) ---------------------------------------------
    def set_callbacks(self,
                      on_update: Optional[UpdateCallback] = None,
                      on_final: Optional[UpdateCallback] = None,
                      on_error: Optional[ErrorCallback] = None
                      ) -> "LeanCorrectable":
        """Attach at most one callback per transition (Promise semantics).

        A second registration on an occupied, still-armed slot raises —
        callers wanting fan-out use the full :class:`Correctable`.
        """
        if on_update is not None:
            if self._state is CorrectableState.UPDATING:
                if self._on_update is not None:
                    raise InvalidStateError(
                        "lean correctable holds one on_update callback")
                self._on_update = on_update
            if self.had_preliminary:
                on_update(View(value=self.preliminary_value,
                               consistency=self.preliminary_consistency,
                               timestamp=self._preliminary_timestamp))
        if on_final is not None:
            if self._state is CorrectableState.FINAL:
                on_final(self.final_view())
            elif self._state is CorrectableState.UPDATING:
                if self._on_final is not None:
                    raise InvalidStateError(
                        "lean correctable holds one on_final callback")
                self._on_final = on_final
        if on_error is not None:
            if self._state is CorrectableState.ERROR:
                assert self._error is not None
                on_error(self._error)
            elif self._state is CorrectableState.UPDATING:
                if self._on_error is not None:
                    raise InvalidStateError(
                        "lean correctable holds one on_error callback")
                self._on_error = on_error
        return self

    def on_update(self, callback: UpdateCallback) -> "LeanCorrectable":
        return self.set_callbacks(on_update=callback)

    def on_final(self, callback: UpdateCallback) -> "LeanCorrectable":
        return self.set_callbacks(on_final=callback)

    def on_error(self, callback: ErrorCallback) -> "LeanCorrectable":
        return self.set_callbacks(on_error=callback)

    def speculate(self, speculation_fn: Callable[[Any], Any],
                  abort_fn: Optional[Callable[[Any], None]] = None,
                  stats: Optional["SpeculationStats"] = None) -> "Correctable":
        """Speculate on preliminary views (Listing 3); see
        :meth:`Correctable.speculate`."""
        from repro.core.speculation import attach_speculation
        return attach_speculation(self, speculation_fn, abort_fn, stats)

    # -- the lean completion sink --------------------------------------------
    def _now(self) -> Optional[float]:
        return self._clock() if self._clock is not None else None

    def deliver_read_preliminary(self, value: Any, timestamp: Any,
                                 latency_ms: float,
                                 replica: Optional[str] = None) -> None:
        if self._state is not CorrectableState.UPDATING:
            self.discarded_updates += 1
            return
        self.had_preliminary = True
        self.preliminary_value = value
        self.preliminary_latency_ms = latency_ms
        self._preliminary_timestamp = self._now()
        callback = self._on_update
        if callback is not None:
            callback(View(value=value,
                          consistency=self.preliminary_consistency,
                          timestamp=self._preliminary_timestamp))

    def deliver_read_final(self, value: Any, timestamp: Any,
                           latency_ms: float, is_confirmation: bool,
                           degraded: bool = False,
                           matches_preliminary: Optional[bool] = None) -> None:
        self._close(value, latency_ms, is_confirmation, degraded)

    def deliver_read_error(self, error: str, latency_ms: float) -> None:
        self._fail(error, latency_ms)

    def deliver_write_ack(self, timestamp: Any, latency_ms: float,
                          degraded: bool = False) -> None:
        # The strong view of a write is its acknowledgement; close with the
        # value the caller wrote (parked in ``pending_value`` at submit).
        self._close(self.pending_value, latency_ms, False, degraded)

    def deliver_write_error(self, error: str, latency_ms: float) -> None:
        self._fail(error, latency_ms)

    def _close(self, value: Any, latency_ms: float,
               is_confirmation: bool, degraded: bool) -> None:
        if self._state is not CorrectableState.UPDATING:
            self.discarded_updates += 1
            return
        if is_confirmation:
            # Confirmation optimization: the final response confirms the
            # preliminary instead of carrying data.
            value = self.preliminary_value
        self._state = CorrectableState.FINAL
        self._value = value
        self._consistency = self.final_consistency
        self._timestamp = self._now()
        self._is_confirmation = is_confirmation
        self.final_latency_ms = latency_ms
        self.degraded = degraded
        callback = self._on_final
        self._on_update = None
        self._on_final = None
        self._on_error = None
        if callback is not None:
            callback(self.final_view())

    def _fail(self, error: str, latency_ms: float) -> None:
        if self._state is not CorrectableState.UPDATING:
            self.discarded_updates += 1
            return
        self._state = CorrectableState.ERROR
        self._error = OperationError(error)
        self.final_latency_ms = latency_ms
        callback = self._on_error
        self._on_update = None
        self._on_final = None
        self._on_error = None
        if callback is not None:
            callback(self._error)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LeanCorrectable(state={self._state.value})"


# Imported late to avoid a circular import at module load time; re-exported
# here so `Correctable.speculate(..., stats=...)` type hints resolve.
from repro.core.speculation import SpeculationStats  # noqa: E402  (re-export)
