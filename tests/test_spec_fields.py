"""Every numeric field of every spec rejects a bad value when the spec is
built, with a ``ValueError`` that names the field.

The cases are generated: the test imports every ``repro`` module and finds
every dataclass.  A dataclass is either a spec, declared with
:func:`repro.workloads.records.spec` and whose ``__post_init__`` starts
with :func:`~repro.workloads.records.check_fields`, or is listed in
:data:`NOT_SPECS` with the reason no rule runs on it.  For each numeric
field of a spec (annotated ``int``, ``float`` or ``Optional`` of one,
read here from the resolved type hints, not from the rule table), NaN,
infinity, -1 and ``True`` must raise, 2.5 and ``"1"`` too for an
``int``, and 0 too for a field declared ``POSITIVE``.  An ``Optional``
field must take ``None``.  Cross-field rules (shares that sum to 1, RF at
most the node count, a timeout above the heartbeat) keep their
hand-written tests.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import math
import pkgutil
import re
import typing

import pytest

import repro

#: Dataclasses that are not specs -> why no field rule runs on them.
NOT_SPECS = {
    "repro.apps.catalog.UseCase": "a catalogue entry: names and text only",
    "repro.apps.tickets.PurchaseOutcome": "a result, built per purchase",
    "repro.bench.fig14_open_loop.SessionStack": "a built harness stack",
    "repro.bench.figures.Figure":
        "a figure's callables; run() checks its overrides by name",
    "repro.bench.sweep.SweepPoint": "a sweep's point, built by the sweep",
    "repro.bench.sweep.PointOutcome": "a measured result",
    "repro.bench.sweep.SweepResult": "a measured result",
    "repro.cassandra_sim.partitioner.StreamTask":
        "hot path: built per stream task of a ring change",
    "repro.cassandra_sim.partitioner.RingChange":
        "built by the partitioner from a checked config",
    "repro.cassandra_sim.replica._Stream": "hot path: one per stream task",
    "repro.cassandra_sim.storage.VersionedValue":
        "hot path: one per written version",
    "repro.core.cluster_spec.BuiltCluster": "what a checked spec builds",
    "repro.core.consistency.ConsistencyLevel":
        "a registered level: its strength is a rank, any int orders",
    "repro.core.operations.Operation": "hot path: one per operation",
    "repro.core.speculation.SpeculationStats": "counters",
    "repro.faults.injector.AppliedFault":
        "a log entry of a checked FaultEvent",
    "repro.faults.schedule.FaultSchedule":
        "holds FaultEvents, each checked when built",
    "repro.faults.schedule.Scenario": "a name and a checked schedule",
    "repro.sim.network.LinkStats": "counters",
    "repro.sim.network._FrozenLinkStats": "counters",
    "repro.txn.coordinator.InFlightTxn": "hot path: one per transaction",
    "repro.txn.coordinator._Delivery": "hot path: one per decision",
    "repro.txn.fabric.TxnFabric": "what a checked TxnConfig builds",
    "repro.txn.log.TxnLogRecord": "hot path: one per logged transaction",
    "repro.txn.manager.PreparedViewStats": "counters",
    "repro.txn.takeover.TakeoverRound": "a takeover's own record",
    "repro.workloads.engine.RunResult": "a measured result",
    "repro.zookeeper_sim.zab._Proposal": "hot path: one per proposal",
}

#: Arguments a spec needs besides the field under test (fields with no
#: default).
REQUIRED = {
    "repro.faults.schedule.FaultEvent":
        dict(at_ms=0.0, action="crash", target="replica:0"),
    "repro.workloads.ycsb.WorkloadSpec":
        dict(name="A", read_proportion=0.5, update_proportion=0.5),
}


def _dataclasses():
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (inspect.isclass(obj) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


DATACLASSES = _dataclasses()
SPECS = {name: cls for name, cls in DATACLASSES.items()
         if name not in NOT_SPECS}


def _numeric(hint):
    """``(int or float, optional)`` for a numeric hint, else ``None``."""
    optional = typing.get_origin(hint) is typing.Union
    if optional:
        args = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        if len(args) != 1:
            return None
        hint = args[0]
    return (hint, optional) if hint in (int, float) else None


def _fields(cls):
    hints = typing.get_type_hints(cls)
    for field in dataclasses.fields(cls):
        numeric = _numeric(hints[field.name])
        if numeric is not None:
            yield field, numeric[0], numeric[1]


def _bad_values(field, kind):
    values = [math.nan, math.inf, -1, True]
    if kind is int:
        values += [2.5, "1"]
    if field.metadata.get("positive"):
        values.append(0)
    return values


CASES = [pytest.param(name, field.name, value,
                      id=f"{name.rsplit('.', 1)[1]}-{field.name}-{value!r}")
         for name, cls in SPECS.items()
         for field, kind, _ in _fields(cls)
         for value in _bad_values(field, kind)]


def _build(name, **overrides):
    return SPECS[name](**{**REQUIRED.get(name, {}), **overrides})


def test_the_nine_specs_are_found():
    assert sorted(name.rsplit(".", 1)[1] for name in SPECS) == [
        "AdsDataset", "CassandraConfig", "CircuitBreaker", "ClusterSpec",
        "FaultEvent", "TwissandraDataset", "TxnConfig", "WorkloadSpec",
        "ZooKeeperConfig"]


def test_not_specs_names_only_dataclasses_that_run_no_rule():
    assert set(NOT_SPECS) <= set(DATACLASSES)
    for name in NOT_SPECS:
        post_init = getattr(DATACLASSES[name], "__post_init__", None)
        if post_init is not None:
            assert "check_fields" not in inspect.getsource(post_init), name


@pytest.mark.parametrize("name", sorted(SPECS))
def test_a_spec_checks_its_fields_first(name):
    source = inspect.getsource(SPECS[name].__post_init__)
    body = [line.strip() for line in source.splitlines()[1:]]
    assert [line for line in body if line and not line.startswith("#")][0] \
        == "check_fields(self)"
    assert any(True for _ in _fields(SPECS[name]))
    _build(name)  # the defaults are valid


@pytest.mark.parametrize("name, field", [
    (name, field.name) for name, cls in SPECS.items()
    for field, _, optional in _fields(cls) if optional])
def test_an_optional_field_takes_none(name, field):
    assert getattr(_build(name, **{field: None}), field) is None


@pytest.mark.parametrize("name, field, value", CASES)
def test_a_bad_value_is_refused_by_name(name, field, value):
    with pytest.raises(ValueError, match=f"^{re.escape(field)} "):
        _build(name, **{field: value})
