"""Every completion sink in the package speaks the one protocol.

Imports every ``repro`` module and finds each class with a ``deliver_*``
method: it must have exactly the three methods of
:class:`repro.core.sink.Sink`, with the protocol's parameter names — so a
store-specific dialect cannot come back under a new name.
"""

import importlib
import inspect
import pkgutil
from typing import Dict, List

import repro
from repro.core.sink import Sink

PROTOCOL = {name: list(inspect.signature(getattr(Sink, name)).parameters)
            for name in ("deliver_preliminary", "deliver_final",
                         "deliver_error")}


def _sink_classes() -> Dict[str, type]:
    found: Dict[str, type] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and any(
                    name.startswith("deliver_") for name in dir(cls)):
                found[f"{cls.__module__}.{cls.__qualname__}"] = cls
    return found


def test_protocol_is_the_three_methods_the_stores_call():
    assert PROTOCOL == {
        "deliver_preliminary": ["self", "value", "stamp", "latency_ms",
                                "source"],
        "deliver_final": ["self", "value", "stamp", "latency_ms",
                          "is_confirmation", "degraded"],
        "deliver_error": ["self", "error", "latency_ms"],
    }


def test_every_sink_class_speaks_exactly_the_protocol():
    classes = _sink_classes()
    assert {
        "repro.core.sink.Sink",
        "repro.core.correctable.Correctable",
        "repro.workloads.runner._ClientThread",
        "repro.workloads.runner._OpenOp",
        "repro.bindings.cached_store._InnerViews",
        "repro.bench.fig05_single_latency._SequentialReads",
        "repro.bench.fig09_zk_latency.EnqueueLoop",
        "repro.bench.fig13_faults._QueueOpSink",
        "repro.bench.fig15_rebalance._JournaledOp",
    } <= set(classes)
    problems: List[str] = []
    for name, cls in sorted(classes.items()):
        methods = sorted(m for m in dir(cls) if m.startswith("deliver_"))
        if methods != sorted(PROTOCOL):
            problems.append(f"{name} defines {methods}")
            continue
        for method, parameters in PROTOCOL.items():
            got = list(inspect.signature(getattr(cls, method)).parameters)
            if got != parameters:
                problems.append(f"{name}.{method}{tuple(got[1:])}")
    assert problems == []
