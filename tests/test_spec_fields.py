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
from repro.workloads.records import (
    check_non_negative_float, check_non_negative_int)

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


#: The three store configs: replicas, clients and servers fold a config
#: into derived values when they are built (whether a read tracks its
#: responses, a client's quorum sizes and patience), so a later assignment
#: would reach only the paths that read the field live.
CONFIGS = ("repro.cassandra_sim.config.CassandraConfig",
           "repro.zookeeper_sim.config.ZooKeeperConfig",
           "repro.txn.config.TxnConfig")


@pytest.mark.parametrize("name, field", [
    pytest.param(name, field.name,
                 id=f"{name.rsplit('.', 1)[1]}-{field.name}")
    for name in CONFIGS for field in dataclasses.fields(SPECS[name])])
def test_a_config_cannot_change_after_build(name, field):
    config = _build(name)
    before = getattr(config, field)
    with pytest.raises(dataclasses.FrozenInstanceError,
                       match=f"^cannot assign to field '{re.escape(field)}'$"):
        setattr(config, field, before)
    assert getattr(config, field) == before


@pytest.mark.parametrize("name, field", [
    pytest.param(name, field.name,
                 id=f"{name.rsplit('.', 1)[1]}-{field.name}")
    for name in CONFIGS for field in dataclasses.fields(SPECS[name])])
def test_a_config_field_cannot_be_deleted_after_build(name, field):
    # On a config that is not frozen, ``del`` would leave the class's
    # default to be read in the field's place.
    config = _build(name)
    before = getattr(config, field)
    with pytest.raises(dataclasses.FrozenInstanceError,
                       match=f"^cannot delete field '{re.escape(field)}'$"):
        delattr(config, field)
    assert getattr(config, field) == before


def _fault_tolerant_overrides(name):
    """What ``fault_tolerant()`` passes to the config's constructor."""
    return SPECS[name].fault_tolerant.__func__(lambda **listed: listed)


@pytest.mark.parametrize("name, field", [
    pytest.param(name, field, id=f"{name.rsplit('.', 1)[1]}-{field}")
    for name in CONFIGS if hasattr(SPECS[name], "fault_tolerant")
    for field in sorted(_fault_tolerant_overrides(name))])
def test_fault_tolerant_lists_only_what_differs_from_the_default(name, field):
    listed = _fault_tolerant_overrides(name)[field]
    assert listed != getattr(_build(name), field)
    assert getattr(SPECS[name].fault_tolerant(), field) == listed


#: The config fields that no caller set -> the model constant that holds
#: their value now, and the two Cassandra recovery switches deleted with
#: the one setting they were run with (``None``).
REMOVED = {
    "repro.cassandra_sim.config.CassandraConfig": {
        "read_service_ms": "READ_SERVICE_MS",
        "write_service_ms": "WRITE_SERVICE_MS",
        "preliminary_flush_ms": "PRELIMINARY_FLUSH_MS",
        "key_size_bytes": "repro.sim.network.KEY_SIZE_BYTES",
        "response_overhead_bytes": "RESPONSE_OVERHEAD_BYTES",
        "confirmation_bytes": "CONFIRMATION_BYTES",
        "stream_batch_ms": "STREAM_BATCH_MS",
        "stream_apply_ms_per_item": "STREAM_APPLY_MS_PER_ITEM",
        "downgrade_on_timeout": None,
        "coordinator_retries": None,
    },
    "repro.zookeeper_sim.config.ZooKeeperConfig": {
        "request_service_ms": "REQUEST_SERVICE_MS",
        "proposal_service_ms": "PROPOSAL_SERVICE_MS",
        "apply_service_ms": "APPLY_SERVICE_MS",
        "simulation_service_ms": "SIMULATION_SERVICE_MS",
        "element_size_bytes": "ELEMENT_SIZE_BYTES",
        "child_name_bytes": "CHILD_NAME_BYTES",
        "path_size_bytes": "PATH_SIZE_BYTES",
        "ack_bytes": "ACK_BYTES",
    },
    "repro.txn.config.TxnConfig": {
        "decision_retry_ms": "DECISION_RETRY_MS",
        "takeover_probe_ms": "TAKEOVER_PROBE_MS",
        "breaker_failure_threshold": "BREAKER_FAILURE_THRESHOLD",
        "breaker_reset_ms": "BREAKER_RESET_MS",
        "key_size_bytes": "repro.sim.network.KEY_SIZE_BYTES",
        "value_size_bytes": "VALUE_SIZE_BYTES",
    },
}


@pytest.mark.parametrize("name, field, constant", [
    pytest.param(name, field, constant,
                 id=f"{name.rsplit('.', 1)[1]}-{field}")
    for name, fields in REMOVED.items()
    for field, constant in fields.items()])
def test_a_removed_field_is_no_keyword_of_its_config(name, field, constant):
    if constant is not None:
        module, _, attr = constant.rpartition(".")
        module = importlib.import_module(module or SPECS[name].__module__)
        assert attr in vars(module), constant
    with pytest.raises(TypeError,
                       match=f"unexpected keyword argument '{field}'$"):
        _build(name, **{field: 1})


#: The modules that hold the cost model's constants.
MODEL_MODULES = ("repro.cassandra_sim.config", "repro.zookeeper_sim.config",
                 "repro.txn.config", "repro.sim.network")
#: A constant's unit, read from the end of its name -> its rule, as a
#: field of that unit has (``check_fields``).
UNIT_RULES = {"_BYTES": check_non_negative_int,
              "_THRESHOLD": check_non_negative_int,
              "_MS": check_non_negative_float,
              "_MS_PER_ITEM": check_non_negative_float}
#: Constants that must be above zero, as their ``POSITIVE`` fields were: a
#: zero period re-arms at the same instant forever, and a zero threshold
#: opens a breaker before any failure.
POSITIVE_CONSTANTS = {"repro.txn.config.DECISION_RETRY_MS",
                      "repro.txn.config.TAKEOVER_PROBE_MS",
                      "repro.txn.config.BREAKER_FAILURE_THRESHOLD"}
MODEL_CONSTANTS = {
    f"{module}.{attr}": value
    for module in MODEL_MODULES
    for attr, value in vars(importlib.import_module(module)).items()
    if attr.isupper() and type(value) in (int, float)}


def test_the_twenty_two_model_constants_are_found():
    assert len(MODEL_CONSTANTS) == 22
    assert POSITIVE_CONSTANTS <= set(MODEL_CONSTANTS)


@pytest.mark.parametrize("constant", sorted(MODEL_CONSTANTS))
def test_a_model_constant_obeys_the_rule_of_its_unit(constant):
    value = MODEL_CONSTANTS[constant]
    units = [unit for unit in UNIT_RULES if constant.endswith(unit)]
    assert len(units) == 1, f"{constant}: its name gives no one unit"
    UNIT_RULES[units[0]](constant, value)
    if constant in POSITIVE_CONSTANTS:
        assert value > 0


@pytest.mark.parametrize("name, field, value", CASES)
def test_a_bad_value_is_refused_by_name(name, field, value):
    with pytest.raises(ValueError, match=f"^{re.escape(field)} "):
        _build(name, **{field: value})
