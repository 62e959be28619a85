"""The speculation combinator (Listing 3) and its bookkeeping.

``source.speculate(fn, abort_fn)`` returns a new Correctable that closes with
``fn(v)`` where ``v`` is the final view's value:

* ``fn`` runs eagerly on every view whose value differs from the previously
  speculated input, so its (possibly slow) work overlaps the wait for the
  final view;
* if the final view matches a speculated input, the cached output is used and
  the derived Correctable closes as soon as both the final view and that
  output are available (speculation *confirmed*);
* otherwise ``fn`` re-runs on the final value, ``abort_fn`` undoes the
  superseded speculation, and the derived Correctable closes when the re-run
  completes (a *misspeculation*).

``fn`` may return a plain value, a :class:`~repro.core.promise.Promise`, or
another :class:`~repro.core.correctable.Correctable` (whose final value is
used) — the ad-serving case study returns a Correctable because fetching the
ads is itself a storage operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, TYPE_CHECKING

from repro.core.promise import Promise
from repro.core.views import View

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.correctable import Correctable


@dataclass
class SpeculationStats:
    """Counters describing how speculation behaved across operations."""

    speculations_started: int = 0
    confirmed: int = 0
    misspeculations: int = 0
    aborts: int = 0
    #: Input values that were speculated on and later superseded.
    wasted_inputs: List[Any] = field(default_factory=list)

    @property
    def total_closed(self) -> int:
        return self.confirmed + self.misspeculations

    def hit_rate(self) -> float:
        """Fraction of closed speculations that were confirmed."""
        if self.total_closed == 0:
            return 0.0
        return self.confirmed / self.total_closed

    def merge(self, other: "SpeculationStats") -> None:
        """Fold another stats object into this one."""
        self.speculations_started += other.speculations_started
        self.confirmed += other.confirmed
        self.misspeculations += other.misspeculations
        self.aborts += other.aborts
        self.wasted_inputs.extend(other.wasted_inputs)


class _SpeculationEntry:
    """One speculative execution of the user function on a given input."""

    __slots__ = ("input_value", "promise")

    def __init__(self, input_value: Any, promise: Promise) -> None:
        self.input_value = input_value
        self.promise = promise


def _as_promise(result: Any) -> Promise:
    """Normalize a speculation function's result to a Promise."""
    # Imported here to avoid a circular import with correctable.py.
    from repro.core.correctable import Correctable

    if isinstance(result, Promise):
        return result
    if isinstance(result, Correctable):
        return result.final_promise()
    return Promise.resolved(result)


def attach_speculation(source: "Correctable",
                       speculation_fn: Callable[[Any], Any],
                       abort_fn: Optional[Callable[[Any], None]] = None,
                       stats: Optional[SpeculationStats] = None) -> "Correctable":
    """Implementation behind :meth:`Correctable.speculate`."""
    from repro.core.correctable import Correctable

    derived = Correctable(clock=source._clock)
    entries: List[_SpeculationEntry] = []
    local_stats = stats if stats is not None else SpeculationStats()

    def _start_speculation(value: Any) -> _SpeculationEntry:
        local_stats.speculations_started += 1
        try:
            result = speculation_fn(value)
            promise = _as_promise(result)
        except BaseException as exc:  # noqa: BLE001 - fail the derived correctable
            promise = Promise.failed(exc)
        entry = _SpeculationEntry(value, promise)
        entries.append(entry)
        return entry

    def _find_entry(value: Any) -> Optional[_SpeculationEntry]:
        for entry in entries:
            if entry.input_value == value:
                return entry
        return None

    def _on_update(view: View) -> None:
        if _find_entry(view.value) is None:
            _start_speculation(view.value)

    def _close_from(entry: _SpeculationEntry, view: View) -> None:
        def _deliver(result: Any) -> None:
            if not derived.is_done():
                derived.close(result, view.consistency,
                              metadata={"speculation_input": entry.input_value})
        entry.promise.on_ready(_deliver)
        entry.promise.on_error(lambda exc: None if derived.is_done()
                               else derived.fail(exc))

    def _on_final(view: View) -> None:
        matching = _find_entry(view.value)
        if matching is not None:
            # Common case: a preliminary view already triggered this work.
            local_stats.confirmed += 1
            for entry in entries:
                if entry is not matching:
                    local_stats.wasted_inputs.append(entry.input_value)
            _close_from(matching, view)
            return
        # Misspeculation: every previous speculation worked on stale input.
        if entries:
            local_stats.misspeculations += 1
            for entry in entries:
                local_stats.wasted_inputs.append(entry.input_value)
                if abort_fn is not None:
                    local_stats.aborts += 1
                    abort_fn(entry.input_value)
        else:
            # No preliminary view ever arrived; not a misspeculation, just a
            # plain (non-speculative) execution on the final value.
            local_stats.confirmed += 1
        entry = _start_speculation(view.value)
        _close_from(entry, view)

    source.set_callbacks(on_update=_on_update, on_final=_on_final,
                         on_error=lambda exc: None if derived.is_done()
                         else derived.fail(exc))
    return derived
