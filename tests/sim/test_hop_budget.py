"""What a hop executes, in exact counts.

Executed bytecodes — ``sys.settrace`` with ``f_trace_opcodes``, so the
figures repeat exactly — of the three primitives every protocol hop goes
through: ``Network.fused_send_to`` (unimpaired link, one ``heappush``),
``Node._enqueue`` (the service charge and one ``heappush``) and the
``Scheduler.run`` drain (per event).
Bytecode counts differ between CPython minor versions, so the budgets are
keyed by version and only the running interpreter's row is checked.
"""

import sys

import pytest

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


def _bytecodes_in(code, run):
    """Bytecodes executed in frames of ``code`` while ``run()`` runs."""
    executed = 0

    def on_opcode(frame, event, arg):
        nonlocal executed
        if event == "opcode":
            executed += 1
        return on_opcode

    def on_call(frame, event, arg):
        if frame.f_code is not code:
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

    per_call = _bytecodes_in(Network.fused_send_to.__code__, run) / _HOPS
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

    per_call = _bytecodes_in(Node._enqueue.__code__, run) / _HOPS
    budget, parent = budgets["_enqueue"]
    assert per_call <= budget < parent


def test_drain_per_event(budgets):
    # Plain entries only: what is counted is the loop body, the set-up
    # around it adds a hundredth of a bytecode per event.
    scheduler = Scheduler()
    events = 4000
    for i in range(events):
        scheduler.schedule_call(i * 0.025, list)
    per_event = _bytecodes_in(Scheduler.run.__code__,
                              scheduler.run) / events
    budget, parent = budgets["drain"]
    assert scheduler.events_executed == events
    assert per_event <= budget < parent
