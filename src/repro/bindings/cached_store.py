"""Cache-fronted binding (Section 5.2, "Causal Consistency and Caching").

:class:`CachedStoreBinding` wraps any inner binding and adds a ``CACHED``
level in front of the inner levels:

* ``invoke`` reveals the cached view first (near-instant), then every view
  the inner binding provides — e.g. three views for the smartphone news
  reader of Listing 6 (cache, backup, primary);
* ``invoke_weak`` reads straight from the cache when possible; on a miss
  the read falls through to the inner binding's weakest level;
* ``invoke_strong`` bypasses the cache entirely;
* writes are write-through: the cache is updated before the write is
  forwarded, so coherence is handled by the binding rather than by
  application code (the point of the Reddit example).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.bindings.base import Binding
from repro.cache.client_cache import ClientCache
from repro.core.consistency import CACHED, ConsistencyLevel, sort_levels
from repro.core.correctable import Correctable
from repro.core.operations import Operation
from repro.sim.scheduler import Scheduler
from repro.sim.topology import non_negative


class _InnerViews:
    """The inner binding's answers, as views at the *inner* levels (the
    Correctable's weakest level may be ``CACHED``), with the cache refreshed
    from the final answer of a read at the inner binding's strongest level
    (``key`` is then the key read)."""

    __slots__ = ("correctable", "levels", "cache", "key")

    def __init__(self, correctable: Correctable,
                 levels: Sequence[ConsistencyLevel], cache: ClientCache,
                 key: Optional[str]) -> None:
        self.correctable = correctable
        self.levels = levels
        self.cache = cache
        self.key = key

    def deliver_preliminary(self, value: Any, stamp: Any, latency_ms: float,
                            source: Optional[str] = None) -> None:
        correctable = self.correctable
        metadata = {"latency_ms": latency_ms, "preliminary": True}
        if len(self.levels) > 1:
            correctable.update(value, self.levels[0], metadata)
        elif correctable.is_updating():
            correctable.close(value, self.levels[0], metadata)

    def deliver_final(self, value: Any, stamp: Any, latency_ms: float,
                      is_confirmation: bool = False,
                      degraded: bool = False) -> None:
        if self.key is not None:
            self.cache.put(self.key, value)
        if self.correctable.is_updating():
            self.correctable.close(
                value, self.levels[-1],
                {"latency_ms": latency_ms, "preliminary": False,
                 "degraded": degraded}, is_confirmation)

    def deliver_error(self, error: Any, latency_ms: float) -> None:
        self.correctable.deliver_error(error, latency_ms)


class CachedStoreBinding(Binding):
    """Adds a client-side cache level in front of an inner binding."""

    def __init__(self, inner: Binding, cache: Optional[ClientCache] = None,
                 scheduler: Optional[Scheduler] = None,
                 cache_latency_ms: float = 0.5) -> None:
        self.inner = inner
        self.cache = cache if cache is not None else ClientCache()
        self.scheduler = scheduler
        self.cache_latency_ms = non_negative("cache_latency_ms",
                                             cache_latency_ms)
        inner_clock = getattr(inner, "clock", None)
        if scheduler is not None:
            self.clock = scheduler.now
        elif inner_clock is not None:
            self.clock = inner_clock

    def consistency_levels(self) -> List[ConsistencyLevel]:
        return sort_levels([CACHED] + list(self.inner.consistency_levels()))

    def submit_operation(self, operation: Operation,
                         levels: List[ConsistencyLevel],
                         correctable: Correctable) -> None:
        levels = self.validate_levels(levels)
        inner_levels = [lv for lv in levels if lv != CACHED]
        key = operation.key

        if operation.name == "write":
            # Write-through coherence: refresh the cache, then forward.
            self.cache.put(key, operation.args[0])
            if CACHED in levels:
                self._deliver_cached(correctable, operation.args[0])
            refresh = False
        else:
            if CACHED in levels:
                hit, value = self.cache.lookup(key)
                if hit:
                    self._deliver_cached(correctable, value)
                elif not inner_levels:
                    # Nothing cached and nothing else asked for: read
                    # through at the inner binding's weakest level.
                    inner_levels = self.inner.consistency_levels()[:1]
                # Otherwise a miss simply produces no cached view: the next
                # level's view is the first one the application sees.
            refresh = operation.name == "read" and \
                inner_levels[-1:] == [self.inner.strongest_level()]

        if inner_levels:
            self.inner.submit_operation(
                operation, inner_levels,
                _InnerViews(correctable, inner_levels, self.cache,
                            key if refresh else None))

    def _deliver_cached(self, correctable: Correctable, value: Any) -> None:
        if self.scheduler is None:
            correctable.deliver_preliminary(value, None, 0.0)
        else:
            latency_ms = self.cache_latency_ms
            self.scheduler.schedule(latency_ms,
                                    correctable.deliver_preliminary, value,
                                    None, latency_ms)
