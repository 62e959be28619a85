"""Declarative fault scripts.

A :class:`FaultSchedule` is an ordered list of :class:`FaultEvent` entries —
"crash node X at t=2000 ms", "partition regions A/B from t=1000 to t=4000" —
that a :class:`~repro.faults.injector.FaultInjector` replays against a live
:class:`~repro.sim.environment.SimEnvironment`.  A :class:`Scenario` wraps a
schedule with a name and a description so experiments can refer to fault
patterns symbolically (see :mod:`repro.faults.scenarios`).

Targets are *selectors*, not raw node names: deployments differ, so a
schedule says ``"replica:0"`` or ``"leader"`` and the injector resolves the
selector through the alias table it was built with.  Region endpoints use the
``"region:<name>"`` form and pass through unresolved.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, List, Tuple

from repro.workloads.records import check_fields, spec

#: Actions understood by the injector, with the operands they use.
#:
#: ``crash`` / ``recover`` / ``slow`` / ``restore_speed``  — ``target`` only
#: (``slow`` also reads ``value`` as the slowdown factor);
#: ``partition`` / ``heal`` / ``degrade_link`` / ``restore_link`` — ``target``
#: and ``peer`` endpoints (``degrade_link`` reads ``value`` as extra ms).
ACTIONS = frozenset({
    "crash", "recover",
    "partition", "heal",
    "degrade_link", "restore_link",
    "slow", "restore_speed",
})

#: Actions that require a second endpoint.
_PAIR_ACTIONS = frozenset({"partition", "heal", "degrade_link", "restore_link"})


@spec(frozen=True)
class FaultEvent:
    """One scheduled fault action, relative to the schedule's arming time."""

    at_ms: float
    action: str
    target: str
    peer: str = ""
    value: float = 0.0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}; "
                             f"choose from {sorted(ACTIONS)}")
        if not self.target:
            raise ValueError("fault event needs a target selector")
        if self.action in _PAIR_ACTIONS and not self.peer:
            raise ValueError(f"action {self.action!r} needs a peer endpoint")
        if self.action == "slow" and not self.value > 0:
            raise ValueError("slow action needs a positive factor in 'value'")


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, time-ordered sequence of fault events."""

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: e.at_ms))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def duration_ms(self) -> float:
        """Time of the last event (0 for an empty schedule)."""
        return self.events[-1].at_ms if self.events else 0.0

    def shifted(self, offset_ms: float) -> "FaultSchedule":
        """The same schedule with every event time moved by ``offset_ms``."""
        return FaultSchedule(tuple(replace(e, at_ms=e.at_ms + offset_ms)
                                   for e in self.events))

    def merged(self, other: "FaultSchedule") -> "FaultSchedule":
        """A schedule combining this one's events with ``other``'s."""
        return FaultSchedule(self.events + other.events)

    @staticmethod
    def of(events: Iterable[FaultEvent]) -> "FaultSchedule":
        return FaultSchedule(tuple(events))


class FaultScheduleBuilder:
    """Fluent construction of common crash/partition windows.

    Example::

        schedule = (FaultScheduleBuilder()
                    .crash_window("replica:1", at_ms=2_000, duration_ms=3_000)
                    .partition_window("region:eu-west-1", "region:us-east-1",
                                      at_ms=1_000, duration_ms=2_000)
                    .build())
    """

    def __init__(self) -> None:
        self._events: List[FaultEvent] = []

    def add(self, event: FaultEvent) -> "FaultScheduleBuilder":
        self._events.append(event)
        return self

    def crash(self, target: str, at_ms: float) -> "FaultScheduleBuilder":
        return self.add(FaultEvent(at_ms, "crash", target))

    def recover(self, target: str, at_ms: float) -> "FaultScheduleBuilder":
        return self.add(FaultEvent(at_ms, "recover", target))

    def crash_window(self, target: str, at_ms: float,
                     duration_ms: float) -> "FaultScheduleBuilder":
        """Crash ``target`` at ``at_ms`` and recover it ``duration_ms`` later."""
        self.crash(target, at_ms)
        return self.recover(target, at_ms + duration_ms)

    def partition_window(self, endpoint_a: str, endpoint_b: str, at_ms: float,
                         duration_ms: float) -> "FaultScheduleBuilder":
        """Partition two endpoints at ``at_ms``, heal ``duration_ms`` later."""
        self.add(FaultEvent(at_ms, "partition", endpoint_a, peer=endpoint_b))
        return self.add(FaultEvent(at_ms + duration_ms, "heal",
                                   endpoint_a, peer=endpoint_b))

    def flapping(self, endpoint_a: str, endpoint_b: str, at_ms: float,
                 up_ms: float, down_ms: float,
                 cycles: int) -> "FaultScheduleBuilder":
        """``cycles`` repetitions of down-for-``down_ms`` / up-for-``up_ms``."""
        t = at_ms
        for _ in range(cycles):
            self.partition_window(endpoint_a, endpoint_b, t, down_ms)
            t += down_ms + up_ms
        return self

    def degrade_window(self, endpoint_a: str, endpoint_b: str, at_ms: float,
                       duration_ms: float,
                       extra_ms: float) -> "FaultScheduleBuilder":
        """Add ``extra_ms`` one-way latency to a link for ``duration_ms``."""
        self.add(FaultEvent(at_ms, "degrade_link", endpoint_a,
                            peer=endpoint_b, value=extra_ms))
        return self.add(FaultEvent(at_ms + duration_ms, "restore_link",
                                   endpoint_a, peer=endpoint_b))

    def slow_window(self, target: str, at_ms: float, duration_ms: float,
                    factor: float) -> "FaultScheduleBuilder":
        """Slow ``target`` by ``factor`` for ``duration_ms``."""
        self.add(FaultEvent(at_ms, "slow", target, value=factor))
        return self.add(FaultEvent(at_ms + duration_ms, "restore_speed", target))

    def build(self) -> FaultSchedule:
        return FaultSchedule.of(self._events)


@dataclass(frozen=True)
class Scenario:
    """A named, reusable fault pattern."""

    name: str
    description: str
    schedule: FaultSchedule = field(default_factory=FaultSchedule)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a name")
