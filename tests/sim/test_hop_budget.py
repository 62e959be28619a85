"""What a hop, and a whole workload, executes, in exact counts.

Executed bytecodes — ``sys.settrace`` with ``f_trace_opcodes``, so the
figures repeat exactly — of the three primitives every protocol hop goes
through: ``Network.fused_send_to`` (unimpaired link, one ``heappush``),
``Node._enqueue`` (the service charge and one ``heappush``) and the
``Scheduler.run`` drain (per event); and of every ``src/`` frame per
completed operation over one round of each perfbench workload, per
submitted transaction over each quick fig16 cell and per committed
transaction over the quick fig13 CZK leader-crash cell; and the ``tracemalloc``
bytes a round of each perfbench workload keeps per completed operation.
Bytecode counts differ between CPython minor versions, so the budgets are
keyed by version and only the running interpreter's row is checked.
"""

import importlib.util
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import repro
from repro.sim.environment import SimEnvironment
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.scheduler import Scheduler
from repro.sim.topology import Region

#: version -> primitive -> (budget, what the same test counted on the
#: parent of the change that last re-measured the row: the timing wheel's
#: 127 / 95 / 44.7, themselves down from 181 / 103 / 50.7).  A budget is
#: the measured count (94 / 68 / 36.0 on 3.11) plus a little room; raising
#: one is a decision, not a fix for a red test.
_BUDGETS = {
    (3, 11): {"fused_send_to": (96, 127), "_enqueue": (69, 95),
              "drain": (37, 44.7)},
}
_HOPS = 200

#: version -> perfbench workload -> (scale, executed bytecodes in ``src/``
#: frames per completed operation, measured on the parent of the change
#: that added the row, or on the change that last lowered it: sending
#: ``Message`` traffic through ``fused_send_to`` took
#: ``cass-open-faults-b`` from 3,381.02 to 3,378.90 and ``zk-tickets``
#: from 4,421.30 to 4,416.58, one key space per cluster took
#: ``ring-join-400k`` from 4,489.67 to 4,403.12, and the bindings
#: completing into the Correctable took ``zk-tickets`` to 4,408.58, and
#: one timeout rule per client without the shared retry policy took
#: ``cass-open-faults-b`` from 3,379.42 to 3,377.09 and ``zk-tickets`` to
#: 4,405.58, and one issuing entry per store — the write payload sized
#: once, contacts resolved when the client is built, no preliminary value
#: kept for a confirmation — took ``cass-closed-a`` from 2,317.75 to
#: 2,313.75, ``cass-open-faults-b`` from 3,377.09 to 3,352.41,
#: ``zk-tickets`` from 4,405.58 to 4,401.58 and ``ring-join-400k`` from
#: 4,403.12 to 4,375.40, and time-zero rows holding one shared marker —
#: a preloaded row's version built on its first read, no ``reads``
#: counter, a stream batch sized from its values in bulk — took
#: ``cass-closed-a`` to 2,312.40, ``cass-open-faults-b`` to 3,349.09 and
#: ``ring-join-400k`` to 3,763.12, and ZooKeeper's heartbeats as
#: control-plane continuations instead of ``Message``s took ``zk-tickets``
#: from 4,401.58 to 4,379.36; the three Cassandra rows then sat below what
#: their tree counted — 2,317.65, 3,363.99 and 3,788.13 — and per-key
#: bookkeeping only for keys in use — a preload's keys found by bisecting
#: the token column, one fan-out plan per ring slot, stream batches by key
#: id — took ``cass-closed-a`` to 2,296.32, ``cass-open-faults-b`` to
#: 3,339.28 and ``ring-join-400k`` to 3,682.32, each re-measured in a
#: fresh process; ``zk-tickets`` measured 4,379.36, its row), and the
#: fan-out plan sorting its own targets by distance (no second per-slot
#: cache) took them to 2,296.06, 3,336.65 and 3,678.15, and range
#: streaming on continuations (no stream ``Message``, payload dict or id
#: lookup) with finals that carry no store-side comparison took them to
#: 2,294.11, 3,333.92 and 3,614.41, and a dataset's keys derived from
#: their record index (a base key found by parsing it: no md5, no bisect)
#: to 2,285.39, 3,324.88 and 3,592.60.
#: One round at
#: ``_WORKLOAD_SEED``, start -> serve -> drain, in a fresh process (the
#: record pools and the zeta cache are process-wide, so what ran before
#: would change the count); set-up is not counted.  The budget is the count
#: plus ``_WORKLOAD_ROOM``: a +2 % change fails.
_WORKLOAD_BUDGETS = {
    (3, 11): {"cass-closed-a": (0.05, 2285.39),
              "cass-open-faults-b": (0.1, 3324.88),
              "zk-tickets": (0.1, 4379.36),
              "ring-join-400k": (0.1, 3592.60)},
}
_WORKLOAD_ROOM = 1.01
_WORKLOAD_SEED = 7

#: version -> perfbench workload -> ``tracemalloc`` bytes still allocated
#: per completed operation after one round at ``_WORKLOAD_SEED`` and
#: ``_BYTES_SCALE``, allocated from the first issue through the drain, in a
#: fresh process: what serving keeps per operation (latency samples,
#: buffered YCSB draws, applied logs, journals), set-up not counted.  Each
#: row is the count when it was set, with latency samples packed in an
#: ``array("d")``, YCSB draws in an ``array("I")`` and one item path per
#: ZooKeeper queue; with samples, draws and paths as Python objects the
#: four counted 171.38, 329.12, 352.21 and 851.82, and a recorder on a
#: list of floats alone takes ``cass-closed-a`` to 144.22.  Prefilled
#: Poisson gaps in an ``array("d")`` instead of a list took
#: ``cass-open-faults-b`` from 268.09 to 247.26 and ``ring-join-400k`` from
#: 828.24 to 812.59.  ``zk-tickets`` reads 309.15 or 309.42 by hash seed;
#: its row is the higher.  Checked against ``_WORKLOAD_ROOM``.
_WORKLOAD_BYTES = {
    (3, 11): {"cass-closed-a": 116.85,
              "cass-open-faults-b": 247.26,
              "zk-tickets": 309.42,
              "ring-join-400k": 812.59},
}
_BYTES_SCALE = 0.1
_PERFBENCH_WORKLOADS = (Path(__file__).resolve().parents[2]
                        / "perfbench" / "workloads.py")

#: version -> quick fig16 scenario -> executed bytecodes in ``src/`` frames
#: per submitted transaction, set-up included, over the whole cell
#: (``run_fig16_cell`` with the figure's quick parameters) in a fresh
#: process, measured on the change that last lowered it: moving 2PC's
#: request path from ``Message`` handlers onto records and continuations
#: took the three cells from 12,507.07, 15,024.66 and 11,926.44 to
#: 10,669.77, 12,564.41 and 10,092.95, the manager's own timeout rule
#: (no failover mixin, no retry policy) took them to 10,588.87, 12,474.82
#: and 10,016.20, and the dataset's initial values as one text (no value
#: sliced at set-up, keys formatted without a call per record) to
#: 10,566.60, 12,451.91 and 9,988.79, and the heartbeats and takeover
#: exchange as control-plane continuations instead of ``Message``s to
#: 10,358.33, 12,245.07 and 9,780.51, and time-zero values derived from
#: the key (no initial-value text drawn at set-up, the character map built
#: in C) to 10,314.02, 12,200.77 and 9,736.20; a base key's first lookup
#: then paid an md5 and a bisect (10,398.09, 12,285.40 and 9,803.38), and
#: finding it by its record index instead, hashing a preload's keys in C
#: and merging each owner's adjacent runs as one took them to 10,310.02,
#: 12,197.38 and 9,722.07; the takeover as an object of its own, which
#: resolves its peers once and ranks itself among the standbys only when
#: the active coordinator changes (not on every tick), took them to the
#: rows below.  Checked against ``_WORKLOAD_ROOM``.
_FIG16_BUDGETS = {
    (3, 11): {"baseline": 10157.68,
              "coordinator-crash-mid-commit": 12092.21,
              "participant-crash-after-prepare": 9577.91},
}

#: version -> quick ``repro.bench.perf`` scenario -> (executed bytecodes in
#: ``src/`` frames per completed operation, set-up included, and scheduler
#: events per operation), each over the scenario's quick parameters in a
#: fresh process, as counted when the row was added.  The two scenarios
#: guard the ZooKeeper request path and the Cassandra request path under
#: a crash (timeouts, failover, read repair), which the perfbench
#: workloads above do not isolate.  Checked against ``_WORKLOAD_ROOM``.
_SCENARIO_BUDGETS = {
    (3, 11): {"fig09-zk-queue": (4196.60, 17.0),
              "fig13-replica-crash": (2730.46, 8.2112)},
}

#: version -> executed bytecodes in ``src/`` frames per committed
#: transaction over the quick fig13 CZK leader-crash cell
#: (``run_fig13_zookeeper`` with the figure's quick parameters), set-up
#: included, in a fresh process, as counted when the row was added
#: (4,487,300 bytecodes for 289 committed transactions at seed 42, the
#: same under PYTHONHASHSEED 1-3).  It is the one counted run of Zab's
#: failure detection, election, sync and re-forwarding: no perfbench
#: workload elects.  Checked against ``_WORKLOAD_ROOM``.
_FIG13_CZK_BUDGETS = {
    (3, 11): 15526.99,
}


def _bytecodes_in(counted, run):
    """Bytecodes executed in frames whose code ``counted(code)`` accepts
    while ``run()`` runs."""
    executed = 0

    def on_opcode(frame, event, arg):
        nonlocal executed
        if event == "opcode":
            executed += 1
        return on_opcode

    def on_call(frame, event, arg):
        if not counted(frame.f_code):
            return None
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return on_opcode

    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
    return executed


@pytest.fixture
def budgets():
    row = _BUDGETS.get(sys.version_info[:2])
    if row is None:
        pytest.skip("no bytecode budgets recorded for CPython %d.%d; measure "
                    "and add a row to _BUDGETS" % sys.version_info[:2])
    return row


@pytest.fixture
def hop():
    """A warm WAN link with jitter on, as in every figure run, and nothing
    impaired."""
    env = SimEnvironment(seed=1)
    src = Node("src", Region.IRL, env.network)
    dst = Node("dst", Region.FRK, env.network)
    env.network.fused_send_to(src, "dst", 100, list, ())
    dst._enqueue(0.5, list, ())
    env.run_until_idle()
    return env, src, dst


def test_fused_send_to(budgets, hop):
    env, src, dst = hop
    send = env.network.fused_send_to

    def run():
        for _ in range(_HOPS):
            assert send(src, "dst", 100, list, ())

    code = Network.fused_send_to.__code__
    per_call = _bytecodes_in(lambda c: c is code, run) / _HOPS
    budget, parent = budgets["fused_send_to"]
    assert per_call <= budget < parent
    assert env.network.link_stats("src", "dst").messages == _HOPS + 1


def test_enqueue(budgets, hop):
    env, src, dst = hop

    def run():
        # On an idle queue each time (the drain in between is not counted).
        for _ in range(_HOPS):
            dst._enqueue(1.5, list, ())
            env.run(until=env.now() + 5.0)

    code = Node._enqueue.__code__
    per_call = _bytecodes_in(lambda c: c is code, run) / _HOPS
    budget, parent = budgets["_enqueue"]
    assert per_call <= budget < parent


def test_drain_per_event(budgets):
    # Plain entries only: what is counted is the loop body, the set-up
    # around it adds a hundredth of a bytecode per event.
    scheduler = Scheduler()
    events = 4000
    for i in range(events):
        scheduler.schedule_call_at(i * 0.025, list)
    code = Scheduler.run.__code__
    per_event = _bytecodes_in(lambda c: c is code, scheduler.run) / events
    budget, parent = budgets["drain"]
    assert scheduler.events_executed == events
    assert per_event <= budget < parent


def _prepared_workload(name, scale):
    """A perfbench workload at ``_WORKLOAD_SEED``, set up, and the function
    that serves one round of it: first issue -> serve slices -> drain."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  _PERFBENCH_WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    workload = module.WORKLOADS[name](_WORKLOAD_SEED, scale)
    workload.build()
    workload.install(workload.make_items())
    workload.prepare()

    def serve():
        workload.start()
        env = workload.env
        while not workload.finished():
            env.run(until=env.now() + workload.slice_ms)
        workload.drain()

    return workload, serve


def _workload_bytecodes_per_op(name, scale):
    """One perfbench round of ``name``: bytecodes executed in ``src/``
    frames from the first issue through the drain, per completed op."""
    workload, serve = _prepared_workload(name, scale)
    src = os.path.dirname(repro.__file__) + os.sep
    executed = _bytecodes_in(lambda code: code.co_filename.startswith(src),
                             serve)
    return executed / workload.completed()


def _workload_bytes_per_op(name):
    """One perfbench round of ``name`` at ``_BYTES_SCALE``: ``tracemalloc``
    bytes allocated from the first issue through the drain and still
    allocated after it, per completed op."""
    workload, serve = _prepared_workload(name, _BYTES_SCALE)
    tracemalloc.start()
    try:
        serve()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return held / workload.completed()


def _fig16_bytecodes_per_txn(scenario):
    """One quick fig16 cell: bytecodes executed in ``src/`` frames from the
    cluster's build through the atomicity audit, per submitted
    transaction."""
    from repro.bench.fig16_txn import run_fig16_cell
    from repro.bench.figures import FIG16

    (point,) = [point for point in FIG16.points(**FIG16.quick)
                if point.kwargs["scenario"] == scenario]
    records = []
    src = os.path.dirname(repro.__file__) + os.sep
    executed = _bytecodes_in(
        lambda code: code.co_filename.startswith(src),
        lambda: records.append(run_fig16_cell(**point.kwargs)[0]))
    return executed / records[0]["submitted"]


def _fig13_czk_bytecodes_per_txn():
    """The quick fig13 CZK leader-crash cell: bytecodes executed in
    ``src/`` frames from the ensemble's build through the drain check, per
    committed transaction."""
    from repro.bench.fig13_faults import run_fig13_zookeeper
    from repro.bench.figures import FIG13

    (point,) = [point for point in FIG13.points(**FIG13.quick)
                if point.label("system") == "CZK"]
    records = []
    src = os.path.dirname(repro.__file__) + os.sep
    executed = _bytecodes_in(
        lambda code: code.co_filename.startswith(src),
        lambda: records.append(run_fig13_zookeeper(**point.kwargs)))
    return executed / records[0]["committed_txns"]


def _scenario_counts_per_op(name):
    """One quick ``repro.bench.perf`` scenario: bytecodes executed in
    ``src/`` frames, and scheduler events, per completed operation."""
    from repro.bench.perf import PERF_SCENARIOS

    run, _, quick = PERF_SCENARIOS[name]
    stats = []
    src = os.path.dirname(repro.__file__) + os.sep
    executed = _bytecodes_in(lambda code: code.co_filename.startswith(src),
                             lambda: stats.append(run(**quick)))
    return executed / stats[0]["ops"], stats[0]["events"] / stats[0]["ops"]


def _in_fresh_process(*args):
    """The counts one measurement prints, in a fresh process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, __file__, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    counts = list(map(float, done.stdout.split()))
    return counts[0] if len(counts) == 1 else counts


@pytest.mark.parametrize("workload", ["cass-closed-a", "cass-open-faults-b",
                                      "zk-tickets", "ring-join-400k"])
def test_workload_bytecodes_per_op(workload):
    row = _WORKLOAD_BUDGETS.get(sys.version_info[:2])
    if row is None:
        pytest.skip("no workload bytecode budgets recorded for CPython "
                    "%d.%d; measure and add a row to _WORKLOAD_BUDGETS"
                    % sys.version_info[:2])
    scale, measured = row[workload]
    per_op = _in_fresh_process(workload, repr(scale))
    assert per_op <= measured * _WORKLOAD_ROOM, \
        f"{workload}: {per_op:.2f} bytecodes/op against {measured:.2f}"


@pytest.mark.parametrize("workload", ["cass-closed-a", "cass-open-faults-b",
                                      "zk-tickets", "ring-join-400k"])
def test_workload_bytes_per_op(workload):
    row = _WORKLOAD_BYTES.get(sys.version_info[:2])
    if row is None:
        pytest.skip("no workload allocation rows recorded for CPython "
                    "%d.%d; measure and add a row to _WORKLOAD_BYTES"
                    % sys.version_info[:2])
    per_op = _in_fresh_process("bytes", workload)
    assert per_op <= row[workload] * _WORKLOAD_ROOM, \
        f"{workload}: {per_op:.2f} bytes/op still allocated against " \
        f"{row[workload]:.2f}"


@pytest.mark.parametrize("scenario", ["baseline",
                                      "coordinator-crash-mid-commit",
                                      "participant-crash-after-prepare"])
def test_fig16_bytecodes_per_txn(scenario):
    row = _FIG16_BUDGETS.get(sys.version_info[:2])
    if row is None:
        pytest.skip("no fig16 bytecode budgets recorded for CPython %d.%d; "
                    "measure and add a row to _FIG16_BUDGETS"
                    % sys.version_info[:2])
    measured = row[scenario]
    per_txn = _in_fresh_process("fig16", scenario)
    assert per_txn <= measured * _WORKLOAD_ROOM, \
        f"fig16 {scenario}: {per_txn:.2f} bytecodes/txn against " \
        f"{measured:.2f}"


def test_fig13_czk_bytecodes_per_txn():
    measured = _FIG13_CZK_BUDGETS.get(sys.version_info[:2])
    if measured is None:
        pytest.skip("no fig13 CZK bytecode budget recorded for CPython "
                    "%d.%d; measure and add a row to _FIG13_CZK_BUDGETS"
                    % sys.version_info[:2])
    per_txn = _in_fresh_process("fig13-czk")
    assert per_txn <= measured * _WORKLOAD_ROOM, \
        f"fig13 CZK leader-crash: {per_txn:.2f} bytecodes/txn against " \
        f"{measured:.2f}"


@pytest.mark.parametrize("scenario", ["fig09-zk-queue", "fig13-replica-crash"])
def test_perf_scenario_bytecodes_and_events_per_op(scenario):
    row = _SCENARIO_BUDGETS.get(sys.version_info[:2])
    if row is None:
        pytest.skip("no perf scenario budgets recorded for CPython %d.%d; "
                    "measure and add a row to _SCENARIO_BUDGETS"
                    % sys.version_info[:2])
    bytecodes, events = row[scenario]
    per_op, events_per_op = _in_fresh_process("scenario", scenario)
    assert per_op <= bytecodes * _WORKLOAD_ROOM, \
        f"{scenario}: {per_op:.2f} bytecodes/op against {bytecodes:.2f}"
    assert events_per_op <= events * _WORKLOAD_ROOM, \
        f"{scenario}: {events_per_op:.4f} events/op against {events:.4f}"


if __name__ == "__main__":
    if sys.argv[1] == "scenario":
        print("%r %r" % _scenario_counts_per_op(sys.argv[2]))
    elif sys.argv[1] == "bytes":
        print(repr(_workload_bytes_per_op(sys.argv[2])))
    elif sys.argv[1] == "fig13-czk":
        print(repr(_fig13_czk_bytecodes_per_txn()))
    elif sys.argv[1] == "fig16":
        print(repr(_fig16_bytecodes_per_txn(sys.argv[2])))
    else:
        print(repr(_workload_bytecodes_per_op(sys.argv[1],
                                              float(sys.argv[2]))))
