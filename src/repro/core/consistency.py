"""Consistency levels.

The Correctables API is *consistency-based*: applications name the guarantee
they want and bindings decide how to achieve it.  Levels are totally ordered
by strength so the library can (a) sort the levels a binding advertises from
weakest to strongest and (b) decide which incoming view closes a Correctable.

Four levels cover every binding shipped with this reproduction:

* ``CACHED``  — served from a client-side cache; may be arbitrarily stale.
* ``WEAK``    — eventual consistency (one replica, no coordination).
* ``CAUSAL``  — causally consistent store.
* ``STRONG``  — linearizable (quorum or leader-coordinated).

Bindings are free to register additional levels (e.g. per-quorum-size levels)
through :meth:`ConsistencyLevel.register`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Iterable, List

from repro.core.errors import BindingError, UnsupportedConsistencyError


@dataclass(frozen=True, order=False)
class ConsistencyLevel:
    """A named consistency guarantee with a total strength order."""

    name: str
    strength: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.name, self.strength)))

    def __hash__(self) -> int:
        # Levels key the validation memo on every operation; the generated
        # hash would rebuild and rehash the field tuple each time.
        return self._hash

    # -- ordering --------------------------------------------------------
    def __lt__(self, other: "ConsistencyLevel") -> bool:
        return self.strength < other.strength

    def __le__(self, other: "ConsistencyLevel") -> bool:
        return self.strength <= other.strength

    def __gt__(self, other: "ConsistencyLevel") -> bool:
        return self.strength > other.strength

    def __ge__(self, other: "ConsistencyLevel") -> bool:
        return self.strength >= other.strength

    def __str__(self) -> str:
        return self.name

    # -- registry --------------------------------------------------------
    _registry: ClassVar[Dict[str, "ConsistencyLevel"]] = {}

    @classmethod
    def register(cls, name: str, strength: int) -> "ConsistencyLevel":
        """Create (or fetch) a level; re-registering must keep the strength."""
        existing = cls._registry.get(name)
        if existing is not None:
            if existing.strength != strength:
                raise ValueError(
                    f"consistency level {name!r} already registered with "
                    f"strength {existing.strength}, not {strength}"
                )
            return existing
        level = cls(name=name, strength=strength)
        cls._registry[name] = level
        return level

    @classmethod
    def by_name(cls, name: str) -> "ConsistencyLevel":
        """Look up a registered level by name."""
        try:
            return cls._registry[name]
        except KeyError:
            raise KeyError(f"unknown consistency level: {name!r}") from None

    @classmethod
    def known_levels(cls) -> List["ConsistencyLevel"]:
        """All registered levels, weakest first."""
        return sorted(cls._registry.values(), key=lambda lv: lv.strength)


def sort_levels(levels: Iterable[ConsistencyLevel]) -> List[ConsistencyLevel]:
    """Return ``levels`` ordered weakest-to-strongest with duplicates removed."""
    seen = set()
    unique = []
    for level in levels:
        if level.name not in seen:
            seen.add(level.name)
            unique.append(level)
    return sorted(unique, key=lambda lv: lv.strength)


#: ``(requested, available) -> validated list``.  Both the client and the
#: binding it submits to validate the same request (each is also usable on
#: its own), and level sets are tiny and static, so successful validations
#: are memoized — the second layer costs a dict lookup, not two sorts.
_VALIDATION_CACHE: Dict[tuple, List[ConsistencyLevel]] = {}


def validate_levels(requested: Iterable[ConsistencyLevel],
                    available: Iterable[ConsistencyLevel]
                    ) -> List[ConsistencyLevel]:
    """``requested`` sorted weakest-first, checked against ``available``.

    The one level-validation routine shared by :class:`CorrectableClient`
    and every :class:`~repro.bindings.base.Binding` (the bindings used to
    hand-roll this check each in their own way).  Raises
    ``UnsupportedConsistencyError`` when the request is empty or asks for a
    level the binding does not advertise, and ``BindingError`` when the
    binding advertises nothing at all.
    """
    cache_key = (tuple(requested), tuple(available))
    validated = _VALIDATION_CACHE.get(cache_key)
    if validated is None:
        available = sort_levels(cache_key[1])
        if not available:
            raise BindingError("binding advertises no consistency levels")
        validated = sort_levels(cache_key[0])
        if not validated:
            raise UnsupportedConsistencyError(validated, available)
        missing = [level for level in validated if level not in available]
        if missing:
            raise UnsupportedConsistencyError(missing, available)
        _VALIDATION_CACHE[cache_key] = validated
    # A fresh list per call: callers treat the result as their own.
    return list(validated)


def strongest(levels: Iterable[ConsistencyLevel]) -> ConsistencyLevel:
    """The strongest level in ``levels`` (raises ``ValueError`` if empty)."""
    ordered = sort_levels(levels)
    if not ordered:
        raise ValueError("no consistency levels given")
    return ordered[-1]


def weakest(levels: Iterable[ConsistencyLevel]) -> ConsistencyLevel:
    """The weakest level in ``levels`` (raises ``ValueError`` if empty)."""
    ordered = sort_levels(levels)
    if not ordered:
        raise ValueError("no consistency levels given")
    return ordered[0]


#: Served from a client-side cache; may be arbitrarily stale.
CACHED = ConsistencyLevel.register("cached", 0)
#: Eventual consistency — a single replica's local state.
WEAK = ConsistencyLevel.register("weak", 10)
#: Causal consistency.
CAUSAL = ConsistencyLevel.register("causal", 20)
#: Linearizability — quorum reads or leader-coordinated operations.
STRONG = ConsistencyLevel.register("strong", 30)
