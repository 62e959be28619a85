"""What a fresh interpreter loads before a run starts, in exact counts.

Every perfbench round is a new process that compiles each ``src/`` module
it imports, so start-up pays for every module that import pulls in,
whether the round runs it or not.  Loading ``perfbench/workloads.py``
read-only must load no worker-pool package, and its ``repro`` module and
source-line counts are pinned per CPython minor version, like the other
exact counts.  The layering checks say which packages a lower layer never
loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_PERFBENCH_WORKLOADS = (Path(__file__).resolve().parents[1]
                        / "perfbench" / "workloads.py")

#: Prints, as JSON, every module the code in ``{code}`` loaded and the
#: source lines of each ``repro`` module among them.
_PROBE = """
import json, sys
before = set(sys.modules)
{code}
loaded = sorted(set(sys.modules) - before)
lines = {{name: len(open(sys.modules[name].__file__, "rb").read().splitlines())
         for name in loaded if name == "repro" or name.startswith("repro.")}}
print(json.dumps({{"loaded": loaded, "repro_lines": lines}}))
"""

_LOAD_WORKLOADS = """
import importlib.util
spec = importlib.util.spec_from_file_location("perfbench_workloads", {path!r})
spec.loader.exec_module(importlib.util.module_from_spec(spec))
"""

#: version -> (repro modules, their source lines), each the count measured
#: when the row was set plus 1 %: deferring the pool and figure imports
#: and emptying the package ``__init__``s took 3.11 from 78 modules and
#: 13,490 lines to 64 and 11,883; moving every figure's parameters into
#: one table (which start-up does not load) took the lines to 11,361;
#: deleting the shared retry policy and failover mixin took 64 modules and
#: 11,362 lines to 62 and 10,992; one issuing entry per store (no inlined
#: client copy, no ZooKeeper response-dict API) took the lines to 10,863,
#: and later changes took them back to 10,970 under the same row; the
#: ZooKeeper server split by role (its redundant entry points deleted)
#: took them to 10,963, and the election as an object of its own (leader
#: adoption, candidate pruning and round abandoning written once each) with
#: ``PoissonArrivals.prefill`` deleted took them to 10,932; one rule per
#: spec field (the configs' hand-written checks replaced by one table
#: built by ``records.spec``) took them to 10,931.  The row keeps the 1.63
#: lines of room it had (one per cent above that count would raise it).
#: Lowering a row records a saving; raising one is a decision, not a fix
#: for a red test.
_STARTUP_BUDGETS = {
    (3, 11): (62.62, 10_932.63),
}

#: Standard-library packages a worker pool pulls in; no round runs one.
_POOL_MODULES = ("multiprocessing", "concurrent.futures", "subprocess",
                 "socket", "pickle")


def _fresh_import(code, extra=""):
    """Run ``code`` (then ``extra``) in a new interpreter; what it loaded."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", _PROBE.format(code=code + extra)], env=env,
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _check_workload_startup(extra=""):
    budget = _STARTUP_BUDGETS.get(sys.version_info[:2])
    if budget is None:
        pytest.skip("no start-up budget recorded for CPython %d.%d; "
                    "measure and add a row to _STARTUP_BUDGETS"
                    % sys.version_info[:2])
    probe = _fresh_import(
        _LOAD_WORKLOADS.format(path=str(_PERFBENCH_WORKLOADS)), extra)
    pools = [name for name in probe["loaded"] if name in _POOL_MODULES]
    assert pools == [], f"start-up loads {pools}"
    modules, lines = len(probe["repro_lines"]), sum(
        probe["repro_lines"].values())
    assert modules <= budget[0], \
        f"{modules} repro modules against {budget[0]}"
    assert lines <= budget[1], f"{lines} source lines against {budget[1]}"


def test_perfbench_workloads_load_no_pool_and_pinned_repro_modules():
    _check_workload_startup()


@pytest.mark.parametrize("extra", [
    "import repro.bench.sweep",
    "import repro.apps.ads",
    "import multiprocessing",
    "import repro.bench.sweep, concurrent.futures",
], ids=["repro-module", "app", "pool", "sweep-pool"])
def test_an_extra_import_fails_the_startup_gate(extra):
    with pytest.raises(AssertionError):
        _check_workload_startup("\n" + extra)


@pytest.mark.parametrize("module, never", [
    ("repro.sim.scheduler", ("repro.core", "repro.cassandra_sim",
                             "repro.bench")),
    ("repro.zookeeper_sim.cluster", ("repro.cassandra_sim",)),
    ("repro.cassandra_sim.cluster", ("repro.txn",)),
], ids=["scheduler", "zookeeper", "cassandra"])
def test_a_layer_loads_nothing_above_it(module, never):
    loaded = _fresh_import(f"import {module}")["loaded"]
    assert module in loaded
    above = [name for name in loaded
             if any(name == package or name.startswith(package + ".")
                    for package in never)]
    assert above == []
