"""The Correctable is the ZooKeeper client's completion sink.

A Correctables invocation hands the storage client the Correctable itself;
anything else goes through the dict-callback API (``zk_slices.
plain_callbacks`` forces every binding submission that way).  Either way
the request is the same ``ZkOp`` on the same hops, so everything observable
— the scheduler trace, the run record, the ensemble's counters, the
``PurchaseOutcome`` sequence, requests that exhaust their failover included
— must be identical.  The same file pins the dict adapter's responses key
for key and that a timed-out operation fails its Correctable exactly once.
"""

from __future__ import annotations

import contextlib
import dis
import sys
import types
from collections import Counter
from typing import Any, Callable, Dict, List, Tuple

import pytest
import zk_slices
from zk_slices import (DRAINED, cluster_record, instances_built,
                       plain_callbacks, traced_schedulers)

from repro.apps.tickets import PurchaseOutcome, TicketSeller, _Purchase
from repro.bindings.zookeeper import ZooKeeperQueueBinding
from repro.core.client import CorrectableClient
from repro.core.consistency import STRONG
from repro.core.correctable import Correctable
from repro.core.errors import OperationError
from repro.core.operations import dequeue
from repro.core.views import View
from repro.sim.environment import SimEnvironment
from repro.sim.topology import Region
from repro.zookeeper_sim.client import ZkOp, _CallbackSink
from repro.zookeeper_sim.cluster import ZooKeeperCluster
from repro.zookeeper_sim.config import ZooKeeperConfig


def _observed(run: Callable[[], Tuple[Dict, List[ZooKeeperCluster]]]
              ) -> Dict[str, Any]:
    with traced_schedulers() as traces, \
            instances_built(PurchaseOutcome) as outcomes:
        record, clusters = run()
    return {
        "trace": traces,
        "record": record,
        "clusters": [cluster_record(cluster) for cluster in clusters],
        "in_flight": [cluster.in_flight() for cluster in clusters],
        "outcomes": [(o.ticket, o.latency_ms, o.used_preliminary, o.sold_out,
                      o.remaining) for o in outcomes],
    }


class TestSinkEqualsDictCallbacks:
    def test_ticket_sale_until_sold_out(self):
        sink = _observed(zk_slices.tickets_cell)
        with plain_callbacks():
            classic = _observed(zk_slices.tickets_cell)
        assert sink == classic
        assert len(sink["outcomes"]) > sink["record"]["stock"]
        assert any(o[2] for o in sink["outcomes"]), "no preliminary was used"
        assert any(o[3] for o in sink["outcomes"]), "never sold out"
        assert sink["in_flight"] == [DRAINED]

    def test_ticket_sale_through_a_leader_crash_with_exhausted_requests(self):
        sink = _observed(zk_slices.tickets_leader_crash)
        with plain_callbacks():
            classic = _observed(zk_slices.tickets_leader_crash)
        assert sink == classic
        (clients,) = [record["clients"] for record in sink["clusters"]]
        failed = {name: failed for name, _, _, failed in clients}
        # The retailers pinned to the crashed leader ran out of retries —
        # an ICG purchase (two views asked) and a strong-only one — and
        # each failure reached the application as one sold-out outcome.
        assert failed["pinned-0"] > 0 and failed["pinned-1"] > 0
        assert sum(failed.values()) == sum(
            1 for outcome in sink["outcomes"] if outcome[0] is None)
        assert sum(retries for _, _, retries, _ in clients) > sum(
            failed.values()), "nobody failed over"
        (servers,) = [record["servers"] for record in sink["clusters"]]
        assert sum(server[7] for server in servers) > 0, "no election"
        assert len(sink["outcomes"]) == 4 * 12
        assert sink["in_flight"] == [DRAINED]


def _ensemble(**config) -> Tuple[SimEnvironment, ZooKeeperCluster]:
    env = SimEnvironment(seed=5)
    cluster = ZooKeeperCluster(env, leader_region=Region.IRL,
                               follower_regions=(Region.FRK, Region.VRG),
                               config=ZooKeeperConfig(**config))
    cluster.preload_queue("/queue", ["a", "b", "c"])
    return env, cluster


class TestDictAdapter:
    def test_responses_key_for_key(self):
        env, cluster = _ensemble()
        client = cluster.add_client("c", Region.FRK)
        got: List[Tuple[str, Dict[str, Any]]] = []
        client.dequeue("/queue", icg=True,
                       on_preliminary=lambda r: got.append(("prelim", r)),
                       on_final=lambda r: got.append(("final", r)))
        client.get("/nowhere", on_final=lambda r: got.append(("get", r)))
        env.run_until_idle()
        by_kind = dict(got)
        assert [kind for kind, _ in got] == ["get", "prelim", "final"]
        head = {"item": "a", "name": "item-0000000000", "remaining": 2}
        assert by_kind["prelim"] == {
            "ok": True, "result": head, "error": None, "preliminary": True,
            "latency_ms": by_kind["prelim"]["latency_ms"]}
        assert by_kind["final"] == {
            "ok": True, "result": head, "error": None, "preliminary": False,
            "latency_ms": by_kind["final"]["latency_ms"]}
        assert 0 < by_kind["prelim"]["latency_ms"] \
            < by_kind["final"]["latency_ms"]
        assert by_kind["get"] == {
            "ok": False, "result": None, "preliminary": False,
            "error": by_kind["get"]["error"],
            "latency_ms": by_kind["get"]["latency_ms"]}
        assert by_kind["get"]["error"].startswith("NoNode")

    def test_exhausted_request_answers_once_with_a_timeout(self):
        env, cluster = _ensemble(request_timeout_ms=100.0, client_retries=2)
        client = cluster.add_client("c", Region.FRK)
        cluster.server_in(Region.FRK).crash()
        got: List[Dict[str, Any]] = []
        client.enqueue("/queue", "d", icg=True, on_preliminary=got.append,
                       on_final=got.append)
        env.run_until_idle()
        assert got == [{"ok": False, "result": None, "preliminary": False,
                        "error": "client timeout: no server responded",
                        "latency_ms": 300.0}]
        assert (client.retries, client.failed_requests) == (2, 1)
        assert cluster.in_flight() == DRAINED


class TestTimedOutInvocation:
    def test_icg_dequeue_fails_its_correctable_exactly_once(self):
        """The contacted follower answers each attempt's preliminary, but
        the leader it forwards to has crashed and the client gives up long
        before the election: the Correctable closes in ERROR — once — and
        the commit the new leader finally answers with finds nothing."""
        env, cluster = _ensemble(**vars(ZooKeeperConfig.fault_tolerant(
            request_timeout_ms=100.0, client_retries=1)))
        cluster.enable_failure_detection()
        node = cluster.add_client("c", Region.FRK)
        client = CorrectableClient(ZooKeeperQueueBinding(node, "/queue"))
        cluster.leader.crash()
        seen: List[Tuple[str, Any]] = []
        correctable = client.invoke(dequeue("/queue"))
        correctable.set_callbacks(
            on_update=lambda view: seen.append(("update", view.value["item"])),
            on_final=lambda view: seen.append(("final", view.value)),
            on_error=lambda error: seen.append(("error", str(error))))
        env.run(until=250.0)
        assert correctable.is_error()
        assert isinstance(correctable.error, OperationError)
        # (The follower's simulation already counts the first head as gone.)
        assert seen == [("update", "a"), ("update", "b"),
                        ("error", "client timeout: no server responded")]
        assert [view.metadata["preliminary"]
                for view in correctable.views()] == [True, True]
        assert (node.requests_sent, node.retries, node.failed_requests) \
            == (1, 1, 1)
        assert cluster.in_flight() == dict(DRAINED, forwarded=2)

        env.run(until=10_000.0)
        assert cluster.current_leader() is not None
        assert [s.tree.child_count("/queue") for s in cluster.servers
                if s.alive] == [1, 1], "both attempts committed"
        assert len(seen) == 3 and correctable.is_error()
        assert correctable.discarded_updates == 0
        assert cluster.in_flight() == DRAINED

    @pytest.mark.parametrize("adapter", [contextlib.nullcontext,
                                         plain_callbacks])
    def test_weak_only_invocation_hears_about_the_timeout_too(self, adapter):
        """No level is deaf to a failure: the error arrives at whatever
        level would have closed the operation (it used to be dropped when
        only the preliminary was asked for, leaving the Correctable open)."""
        env, cluster = _ensemble(request_timeout_ms=100.0, client_retries=0)
        node = cluster.add_client("c", Region.FRK)
        client = CorrectableClient(ZooKeeperQueueBinding(node, "/queue"))
        cluster.server_in(Region.FRK).crash()
        with adapter():
            correctable = client.invoke_weak(dequeue("/queue"))
        env.run_until_idle()
        assert correctable.is_error() and not correctable.views()
        assert str(correctable.error) == "client timeout: no server responded"
        assert node.failed_requests == 1 and cluster.in_flight() == DRAINED


# ---------------------------------------------------------------------------
# what one invocation allocates
# ---------------------------------------------------------------------------

_REQUEST_PATH = ("zookeeper_sim/client.py", "bindings/zookeeper.py",
                 "core/client.py", "core/correctable.py", "apps/tickets.py")


def _opcodes_executed(run: Callable[[], None]) -> Dict[str, Counter]:
    """Per source file of the request path, how often each opcode ran
    inside ``run`` (``sys.settrace`` with ``f_trace_opcodes``: exact)."""
    counts: Dict[str, Counter] = {name: Counter() for name in _REQUEST_PATH}

    def on_call(frame, event, arg):
        for name in _REQUEST_PATH:
            if frame.f_code.co_filename.endswith(name):
                frame.f_trace_opcodes = True
                seen = counts[name]

                def on_opcode(frame, event, arg):
                    if event == "opcode":
                        code = frame.f_code.co_code[frame.f_lasti]
                        seen[dis.opname[code]] += 1
                    return on_opcode

                return on_opcode
        return None

    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
    return counts


def _builds(counter: Counter) -> Tuple[int, int]:
    """(dicts built, functions made)."""
    return (sum(n for op, n in counter.items()
                if op in ("BUILD_MAP", "BUILD_CONST_KEY_MAP")),
            counter["MAKE_FUNCTION"])


def _two_hundred_icg_purchases() -> Dict[str, Any]:
    env, cluster = _ensemble()
    cluster.preload_queue("/tickets", [f"t{i}" for i in range(260)])
    node = cluster.add_client("retailer", Region.FRK)
    seller = TicketSeller(
        CorrectableClient(ZooKeeperQueueBinding(node, "/tickets")),
        queue_path="/tickets", threshold=20)
    outcomes: List[PurchaseOutcome] = []

    def bought(outcome: PurchaseOutcome) -> None:
        outcomes.append(outcome)
        if len(outcomes) < 200:
            seller.purchase_ticket(bought)

    built = {}
    with contextlib.ExitStack() as stack:
        for cls in (Correctable, ZkOp, View, _CallbackSink, _Purchase):
            built[cls.__name__] = stack.enter_context(instances_built(cls))
        opcodes = _opcodes_executed(
            lambda: (seller.purchase_ticket(bought), env.run_until_idle()))
    assert len(outcomes) == 200 and not any(o.sold_out for o in outcomes)
    assert seller.purchases_from_preliminary == 200
    return {"built": {name: len(made) for name, made in built.items()},
            "opcodes": opcodes,
            "views": built["View"]}


class TestWhatAnInvocationAllocates:
    def test_sink_path_builds_no_response_dict_and_no_closure(self):
        run = _two_hundred_icg_purchases()
        # Per ICG dequeue: the Correctable, the request record, the purchase
        # record, two views — and nothing else of the library's.
        assert run["built"] == {"Correctable": 200, "ZkOp": 200, "View": 400,
                                "_CallbackSink": 0, "_Purchase": 200}
        for name in ("zookeeper_sim/client.py", "bindings/zookeeper.py",
                     "core/client.py", "apps/tickets.py"):
            assert sum(run["opcodes"][name].values()) > 200, name
            assert _builds(run["opcodes"][name]) == (0, 0), name
        # The only dicts are the two views' metadata.
        assert _builds(run["opcodes"]["core/correctable.py"]) == (400, 0)
        assert [sorted(view.metadata) for view in run["views"][:2]] \
            == [["latency_ms", "preliminary"]] * 2

    def test_the_instrument_sees_the_dict_adapter(self):
        with plain_callbacks():
            run = _two_hundred_icg_purchases()
        assert run["built"]["_CallbackSink"] == 200
        assert run["built"]["View"] == 400
        # Two response dicts per operation, two closures and two metadata
        # dicts in the binding.
        assert _builds(run["opcodes"]["zookeeper_sim/client.py"]) == (400, 0)
        assert _builds(run["opcodes"]["bindings/zookeeper.py"]) == (400, 400)

    def test_submit_defines_no_function_and_the_records_are_closed(self):
        assert not any(isinstance(const, types.CodeType)
                       for const in CorrectableClient._submit.__code__.co_consts)
        assert "on_final" not in ZkOp.__slots__
        assert "on_preliminary" not in ZkOp.__slots__
        correctable = Correctable.resolved("v", STRONG)
        for record in (correctable, correctable.final_view()):
            assert not hasattr(record, "__dict__")
            with pytest.raises(AttributeError):
                record.extra = 1
