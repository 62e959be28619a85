"""Phase spans and profile-to-layer attribution for the traced run.

Two instruments, both kept in memory until the run ends:

* :class:`Spans` — named wall-clock intervals recorded from the benchmark's
  own files around the calls into the program (``setup.import`` …
  ``serve`` with one child per slice, ``drain``, ``audit``).  Cheap enough
  to stay on in untraced runs, where the phase timings come from them.
* :func:`attribute` — folds a ``cProfile`` profile into per-layer self time
  and call counts.  A function's self time belongs to the layer of its
  source file; time inside builtins and the standard library is charged to
  whoever called it (following ``pstats`` caller edges upward), so only
  time with no caller inside the repository is left ``unattributed``.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from layers import LAYERS, UNATTRIBUTED

#: Call levels of outside code followed upward before giving up.
_PASSES = 24


class Spans:
    """In-memory span log: name, start, end, parent, workload id."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.records: List[dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        record = {"id": len(self.records), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "workload": self.workload,
                  "start": time.perf_counter(), "end": None}
        self.records.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def duration(self, name: str) -> float:
        """Total seconds spent in spans called ``name``."""
        return sum(r["end"] - r["start"] for r in self.records
                   if r["name"] == name)


def attribute(profile: cProfile.Profile,
              layer_of: Callable[[str], Optional[str]]
              ) -> Dict[str, Dict[str, float]]:
    """Per-layer ``{"self_s", "calls"}`` from one profile.

    ``calls`` counts calls of functions defined in the layer's own files
    (deterministic for a deterministic run); ``self_s`` also includes the
    builtin/stdlib time charged to the layer through its callers.
    """
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    own: Dict[tuple, Optional[str]] = {
        func: layer_of(func[0]) for func in stats}
    nowhere = {UNATTRIBUTED: 1.0}
    # How each outside function's self time splits over layers.  A caller
    # edge hands on the caller's own split, so the splits are the fixed
    # point of a linear system; outside code calls itself in cycles
    # (importlib above all), hence iteration rather than recursion.  Each
    # pass moves the weight one call level closer to repository code.
    outside = [func for func in stats if own[func] is None]
    split: Dict[tuple, Dict[str, float]] = {func: nowhere for func in outside}
    for _ in range(_PASSES):
        updated = {}
        for func in outside:
            callers = stats[func][4]
            total = sum(edge[2] for edge in callers.values())
            if total <= 0:
                updated[func] = nowhere
                continue
            mix: Dict[str, float] = {}
            for caller, edge in callers.items():
                layer = own.get(caller)
                source = {layer: 1.0} if layer else split.get(caller, nowhere)
                for target, part in source.items():
                    mix[target] = mix.get(target, 0.0) + part * edge[2] / total
            updated[func] = mix
        split = updated

    table = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for func, (_cc, ncalls, self_s, _ct, _callers) in stats.items():
        layer = own[func]
        if layer is not None:
            table[layer]["calls"] += ncalls
            table[layer]["self_s"] += self_s
        else:
            for target, part in split[func].items():
                table[target]["self_s"] += self_s * part
    return table
