"""Source file -> layer map for per-layer attribution.

Layers are this repository's modules.  Every ``src/repro/**/*.py`` file maps
to exactly one layer (``unmapped_sources`` is the guard the traced run
enforces), ``perfbench/`` itself is ``bench-glue``, and anything else
(stdlib, builtins) has no layer of its own: ``trace.attribute`` charges it to
the layer of whoever called it.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "repro"
BENCH_DIR = Path(__file__).resolve().parent

UNATTRIBUTED = "unattributed"

#: First match wins; a rule is a file or a directory (trailing slash)
#: relative to ``src/repro``.
_RULES = (
    ("sim/scheduler.py", "sim.scheduler"),
    ("sim/clock.py", "sim.scheduler"),
    ("sim/", "sim.network"),
    ("cassandra_sim/client.py", "cassandra.client"),
    ("cassandra_sim/replica.py", "cassandra.replica"),
    ("cassandra_sim/coordinator.py", "cassandra.replica"),
    ("cassandra_sim/versions.py", "cassandra.replica"),
    ("cassandra_sim/storage.py", "cassandra.storage"),
    ("cassandra_sim/", "cassandra.ring"),
    ("zookeeper_sim/", "zookeeper"),
    ("core/", "core"),
    ("bindings/", "bindings"),
    ("apps/", "apps"),
    ("workloads/", "workloads"),
    ("metrics/", "metrics"),
    ("faults/", "faults"),
    ("txn/", "txn"),
    ("cache/", "periphery"),
    ("blockchain_sim/", "periphery"),
    ("__init__.py", "periphery"),
    ("bench/", "bench-glue"),
)

#: Report order: the named layers, then the remainder.
LAYERS = tuple(dict.fromkeys(layer for _, layer in _RULES)) + (UNATTRIBUTED,)


def layer_of(filename: str) -> Optional[str]:
    """The layer owning ``filename``, or ``None`` for code outside the repo."""
    path = Path(filename)
    if BENCH_DIR in path.parents:
        return "bench-glue"
    try:
        relative = path.relative_to(PACKAGE).as_posix()
    except ValueError:
        return None
    for rule, layer in _RULES:
        if relative == rule or (rule.endswith("/")
                                and relative.startswith(rule)):
            return layer
    return None


def unmapped_sources() -> List[str]:
    """Files under ``src/repro`` that no rule claims (must stay empty)."""
    return sorted(str(path.relative_to(SRC))
                  for path in PACKAGE.rglob("*.py")
                  if layer_of(str(path)) is None)
