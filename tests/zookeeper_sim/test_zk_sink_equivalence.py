"""The Correctable is the storage client's completion sink.

A Correctables invocation hands the ZooKeeper client (and the Cassandra
client) the operation's Correctable itself.  Ticket sales through it —
requests that exhaust their failover included — reach every outcome and
drain, and run identically twice; what one invocation allocates is
counted opcode by opcode.  The same file pins what ``submit_sink``
delivers to any other sink, call for call, and that a timed-out operation
fails its Correctable exactly once.
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
from history import RecordingSink
from zk_slices import (DRAINED, cluster_record, instances_built,
                       traced_schedulers)

from repro.apps.tickets import PurchaseOutcome, TicketSeller, _Purchase
from repro.bindings.cassandra import CassandraBinding
from repro.bindings.zookeeper import ZooKeeperQueueBinding
from repro.cassandra_sim.cluster import CassandraCluster
from repro.cassandra_sim.config import CassandraConfig
from repro.cassandra_sim.coordinator import FusedRead
from repro.core.client import CorrectableClient
from repro.core.consistency import STRONG
from repro.core.correctable import Correctable
from repro.core.errors import OperationError
from repro.core.operations import dequeue, read
from repro.core.views import View
from repro.sim.environment import SimEnvironment
from repro.sim.topology import Region
from repro.zookeeper_sim.client import ZkOp
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


class TestTicketSales:
    def test_ticket_sale_until_sold_out(self):
        sink = _observed(zk_slices.tickets_cell)
        assert sink == _observed(zk_slices.tickets_cell)
        assert len(sink["outcomes"]) > sink["record"]["stock"]
        assert any(o[2] for o in sink["outcomes"]), "no preliminary was used"
        assert any(o[3] for o in sink["outcomes"]), "never sold out"
        assert sink["in_flight"] == [DRAINED]

    def test_ticket_sale_through_a_leader_crash_with_exhausted_requests(self):
        sink = _observed(zk_slices.tickets_leader_crash)
        assert sink == _observed(zk_slices.tickets_leader_crash)
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


class TestSubmitSink:
    def test_answers_call_for_call(self):
        env, cluster = _ensemble()
        client = cluster.add_client("c", Region.FRK)
        calls: List[tuple] = []
        client.submit_sink("dequeue", "/queue", RecordingSink(calls=calls),
                           icg=True)
        client.submit_sink("get", "/nowhere", RecordingSink(calls=calls))
        env.run_until_idle()
        error, prelim, final = calls
        assert [call.kind for call in calls] \
            == ["error", "preliminary", "final"]
        head = {"item": "a", "name": "item-0000000000", "remaining": 2}
        # No version and no source: a ZooKeeper answer is the result alone.
        assert prelim == ("preliminary", head, None, prelim.latency_ms, None)
        assert final == ("final", head, None, final.latency_ms, False, False,
                         None)
        assert 0 < prelim.latency_ms < final.latency_ms
        assert error.error.startswith("NoNode")

    def test_exhausted_request_answers_once_with_a_timeout(self):
        env, cluster = _ensemble(request_timeout_ms=100.0, client_retries=2)
        client = cluster.add_client("c", Region.FRK)
        cluster.server_in(Region.FRK).crash()
        sink = RecordingSink()
        client.submit_sink("enqueue", "/queue", sink, "d", icg=True)
        env.run_until_idle()
        assert sink.calls == [
            ("error", "client timeout: no server responded", 300.0)]
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

    def test_weak_only_invocation_hears_about_the_timeout_too(self):
        """No level is deaf to a failure: the error arrives at whatever
        level would have closed the operation (it used to be dropped when
        only the preliminary was asked for, leaving the Correctable open)."""
        env, cluster = _ensemble(request_timeout_ms=100.0, client_retries=0)
        node = cluster.add_client("c", Region.FRK)
        client = CorrectableClient(ZooKeeperQueueBinding(node, "/queue"))
        cluster.server_in(Region.FRK).crash()
        correctable = client.invoke_weak(dequeue("/queue"))
        env.run_until_idle()
        assert correctable.is_error() and not correctable.views()
        assert str(correctable.error) == "client timeout: no server responded"
        assert node.failed_requests == 1 and cluster.in_flight() == DRAINED


# ---------------------------------------------------------------------------
# what one invocation allocates
# ---------------------------------------------------------------------------

def _opcodes_executed(run: Callable[[], None],
                      paths: Tuple[str, ...]) -> Dict[str, Counter]:
    """Per source file of the request path, how often each opcode ran
    inside ``run`` (``sys.settrace`` with ``f_trace_opcodes``: exact)."""
    counts: Dict[str, Counter] = {name: Counter() for name in paths}

    def on_call(frame, event, arg):
        for name in paths:
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


def _counted(run: Callable[[], None], classes: Tuple[type, ...],
             paths: Tuple[str, ...]) -> Dict[str, Any]:
    built = {}
    with contextlib.ExitStack() as stack:
        for cls in classes:
            built[cls.__name__] = stack.enter_context(instances_built(cls))
        opcodes = _opcodes_executed(run, paths)
    return {"built": {name: len(made) for name, made in built.items()},
            "opcodes": opcodes,
            "views": built["View"]}


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

    run = _counted(
        lambda: (seller.purchase_ticket(bought), env.run_until_idle()),
        (Correctable, ZkOp, View, _Purchase),
        ("zookeeper_sim/client.py", "bindings/zookeeper.py",
         "core/client.py", "core/correctable.py", "apps/tickets.py"))
    assert len(outcomes) == 200 and not any(o.sold_out for o in outcomes)
    assert seller.purchases_from_preliminary == 200
    return run


def _two_hundred_icg_reads() -> Dict[str, Any]:
    env = SimEnvironment(seed=5)
    cluster = CassandraCluster(env, CassandraConfig())
    cluster.preload({f"key{i}": f"value{i}" for i in range(10)})
    client = CorrectableClient(CassandraBinding(
        cluster.add_client("reader", Region.IRL, Region.FRK)))
    # One read before the count, which then sees only steady-state
    # operations (the first one also fills the route and plan caches).
    client.invoke(read("key0"))
    env.run_until_idle()
    finals: List[View] = []

    def read_next(view: Any = None) -> None:
        if view is not None:
            finals.append(view)
        if len(finals) < 200:
            client.invoke(read(f"key{len(finals) % 10}")).on_final(read_next)

    records = FusedRead.pool_stats()
    run = _counted(
        lambda: (read_next(), env.run_until_idle()), (Correctable, View),
        ("cassandra_sim/client.py", "bindings/cassandra.py",
         "core/client.py", "core/correctable.py"))
    after = FusedRead.pool_stats()
    run["built"]["FusedRead"] = (after["created"] + after["reused"]
                                 - records["created"] - records["reused"])
    assert [view.value for view in finals[:2]] == ["value0", "value1"]
    assert len(finals) == 200 and cluster.in_flight() == {
        "read_sessions": 0, "write_sessions": 0, "client_pending": 0}
    return run


#: store -> (its 200 ICG operations, the objects they build, the request
#: path's files outside core/correctable.py)
_ICG_RUNS = {
    "zookeeper": (_two_hundred_icg_purchases,
                  {"Correctable": 200, "ZkOp": 200, "View": 400,
                   "_Purchase": 200},
                  ("zookeeper_sim/client.py", "bindings/zookeeper.py",
                   "core/client.py", "apps/tickets.py")),
    "cassandra": (_two_hundred_icg_reads,
                  {"Correctable": 200, "View": 400, "FusedRead": 200},
                  ("cassandra_sim/client.py", "bindings/cassandra.py",
                   "core/client.py")),
}


class TestWhatAnInvocationAllocates:
    @pytest.mark.parametrize("store", list(_ICG_RUNS))
    def test_sink_path_builds_no_response_dict_and_no_closure(self, store):
        make_run, built, paths = _ICG_RUNS[store]
        run = make_run()
        # Per ICG operation: the Correctable, the request record, two views
        # (and the purchase record of the ticket app) — and nothing else of
        # the library's.
        assert run["built"] == built
        for name in paths:
            assert sum(run["opcodes"][name].values()) > 200, name
            assert _builds(run["opcodes"][name]) == (0, 0), name
        # The only dicts are the two views' metadata.
        assert _builds(run["opcodes"]["core/correctable.py"]) == (400, 0)
        assert Counter(tuple(sorted(view.metadata))
                       for view in run["views"]) == {
            ("latency_ms", "preliminary"): 200,
            ("degraded", "latency_ms", "preliminary"): 200}

    def test_submit_defines_no_function_and_the_records_are_closed(self):
        from repro.bindings.cached_store import CachedStoreBinding
        from repro.bindings.local import LocalBinding
        from repro.bindings.primary_backup import PrimaryBackupBinding

        for submit in (CorrectableClient._submit,
                       CassandraBinding.submit_operation,
                       ZooKeeperQueueBinding.submit_operation,
                       LocalBinding.submit_operation,
                       PrimaryBackupBinding.submit_operation,
                       CachedStoreBinding.submit_operation):
            # (A comprehension's code object is no closure the call keeps.)
            assert not any(isinstance(const, types.CodeType)
                           and not const.co_name.startswith("<")
                           for const in submit.__code__.co_consts), submit
        assert "on_final" not in ZkOp.__slots__
        assert "on_preliminary" not in ZkOp.__slots__
        correctable = Correctable.resolved("v", STRONG)
        for record in (correctable, correctable.final_view()):
            assert not hasattr(record, "__dict__")
            with pytest.raises(AttributeError):
                record.extra = 1
