"""A line ledger for the three store configs, the Cassandra client,
coordinator, replica, ring and storage modules, the workload package, the
ZooKeeper client, server, Zab, data tree and ensemble, the 2PC manager,
coordinator, participant, takeover and log, and the simulator core.

A pytest plugin, stdlib only: ``PYTHONPATH=src:tests python -m pytest
-p ledger``.  It traces (``sys.settrace``) every line run in the modules
of :data:`MODULES` while the suite runs, then fails the session on any
executable line that never ran and is not in :data:`ALLOWED`, and on any
:data:`ALLOWED` entry that ran after all or names no line (a stale
entry).  So a test that reaches a cold path — a guard that only fires on
a crash, a drop or a ring change — cannot be skipped, deselected or
deleted without the ledger saying which lines it was the only one to
reach.  The ledger is only checked when every test
passed, and only means something over the whole suite.

Lines run by the body of a Hypothesis test do not count: which lines its
draws reach depends on the seed, so a line only a draw reaches would make
the verdict change from run to run.  Such a line needs a named test.

Executable lines are the ``co_lines()`` of every code object the module
compiles to; a line counts as run once any frame of that file executed it.
Lines run only in a child process (the fresh-process counters, the
parallel sweeps) are not seen, so the modules keep no line that only a
child process reaches.  The tracer is armed when the plugin is imported,
before collection imports the modules, and re-armed before each test
phase, since a test that counts bytecodes with its own tracer turns it off.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from typing import Dict, Set, Tuple

import pytest

#: The modules traced, relative to the ``repro`` package.
MODULES = ("cassandra_sim/config.py", "cassandra_sim/client.py",
           "cassandra_sim/reads.py", "cassandra_sim/writes.py",
           "cassandra_sim/replica.py", "cassandra_sim/cluster.py",
           "cassandra_sim/partitioner.py", "cassandra_sim/storage.py",
           "workloads/__init__.py", "workloads/arrivals.py",
           "workloads/distributions.py", "workloads/engine.py",
           "workloads/fastrand.py", "workloads/records.py",
           "workloads/runner.py", "workloads/ycsb.py",
           "zookeeper_sim/config.py", "zookeeper_sim/client.py",
           "zookeeper_sim/server.py", "zookeeper_sim/zab.py",
           "zookeeper_sim/datatree.py", "zookeeper_sim/cluster.py",
           "txn/config.py", "txn/manager.py", "txn/coordinator.py",
           "txn/participant.py", "txn/takeover.py", "txn/log.py",
           "sim/scheduler.py", "sim/network.py", "sim/node.py",
           "sim/topology.py", "sim/clock.py", "sim/environment.py",
           "sim/rand.py")

#: (module, function qualname, stripped source line) -> why it may stay
#: unreached by the suite.
ALLOWED: Dict[Tuple[str, str, str], str] = {
    ("zookeeper_sim/server.py", "<module>",
     "from repro.zookeeper_sim.client import ZkOp"):
        "typing only: annotations are never evaluated at run time",
    ("sim/network.py", "<module>", "from repro.sim.node import Node"):
        "typing only: annotations are never evaluated at run time",
    **{key: "abstract: every subclass overrides it, and nothing builds "
            "the base class"
       for key in (
           ("workloads/arrivals.py", "ArrivalProcess.next_gap_ms",
            "raise NotImplementedError"),
           ("workloads/engine.py", "LoadEngine._start_load",
            "raise NotImplementedError"))},
    **{key: "a debugging aid: nothing in the simulator prints it"
       for key in (
           ("sim/scheduler.py", "Event.__repr__",
            'state = "cancelled" if self.cancelled else "pending"'),
           ("sim/scheduler.py", "Event.__repr__",
            'return f"Event(t={self.time:.3f}, seq={self.seq}, {state})"'),
           ("sim/network.py", "Message.__repr__",
            'return (f"Message(src={self.src!r}, dst={self.dst!r}, "'),
           ("sim/network.py", "Message.__repr__",
            'f"kind={self.kind!r}, size_bytes={self.size_bytes})")'),
           ("sim/node.py", "Node.__repr__",
            'return f"{type(self).__name__}({self.name!r}, '
            'region={self.region!r})"'),
           ("sim/clock.py", "Clock.__repr__",
            'return f"Clock(now={self._now:.3f}ms)"'))},
}

_PACKAGE = Path(importlib.util.find_spec("repro").submodule_search_locations[0])
_FILES = {str(_PACKAGE / module): module for module in MODULES}
_hits: Dict[str, Set[int]] = {path: set() for path in _FILES}


def _trace_lines(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _trace_lines


def _trace_calls(frame, event, arg):
    if frame.f_code.co_filename in _hits:
        return _trace_lines
    return None


def _arm() -> None:
    sys.settrace(_trace_calls)


_arm()


def executable_lines(path: str) -> Dict[int, str]:
    """Line number -> qualname of the innermost code object holding it."""
    owners: Dict[int, str] = {}

    def walk(code, qualname):
        for _, _, line in code.co_lines():
            if line:
                owners[line] = qualname
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                walk(const, getattr(const, "co_qualname", const.co_name))

    walk(compile(Path(path).read_text(), path, "exec"), "<module>")
    return owners


def ledger() -> Tuple[Dict[str, Tuple[int, int]], list, list]:
    """Per module ``(lines run, executable lines)``, the unreached lines
    not allowed (``module:line: source  [qualname]``) and the stale
    :data:`ALLOWED` entries."""
    counts, unreached, used = {}, [], set()
    for path, module in _FILES.items():
        source = Path(path).read_text().splitlines()
        owners = executable_lines(path)
        hits = _hits[path]
        counts[module] = (len(hits & owners.keys()), len(owners))
        for line in sorted(owners.keys() - hits):
            key = (module, owners[line], source[line - 1].strip())
            if key in ALLOWED:
                used.add(key)
            else:
                unreached.append(f"{module}:{line}: {key[2]}  [{key[1]}]")
    stale = [" | ".join(key) for key in ALLOWED if key not in used]
    return counts, unreached, stale


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_setup(item):
    _arm()
    yield


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_call(item):
    if getattr(getattr(item, "obj", None), "is_hypothesis_test", False):
        sys.settrace(None)
    else:
        _arm()
    yield


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_teardown(item):
    _arm()
    yield


_report: list = []


@pytest.hookimpl(tryfirst=True)
def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    if exitstatus != 0:
        _report.append("ledger: not checked (the run did not pass)")
        return
    counts, unreached, stale = ledger()
    _report.append("ledger: " + ", ".join(
        f"{module} {run}/{total}" for module, (run, total) in counts.items()))
    if unreached:
        _report.append(f"ledger: {len(unreached)} line(s) never ran and are "
                       "not in tests/ledger.py:ALLOWED:")
        _report.extend("  " + line for line in unreached)
    if stale:
        _report.append("ledger: stale ALLOWED entries (the line ran, or "
                       "is gone):")
        _report.extend("  " + entry for entry in stale)
    if unreached or stale:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    for line in _report:
        terminalreporter.write_line(line)
