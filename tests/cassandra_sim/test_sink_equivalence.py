"""The sink is the client's one completion interface.

An issuer either hands the storage client the runner's own pooled record as
the sink (``make_kv_issue``, ``make_session_issue``) or issues through a
``CorrectableClient`` over the Cassandra binding, which hands the client
the operation's ``Correctable``, and forwards the views into that record
(``fault_slices.correctable_kv_issue``, the sessions' ``Correctable``
route).  Either way the request rides the same pooled records — with
timeouts, failover and read repair under a fault configuration — and
everything observable — the scheduler trace, the run's metrics, the bytes
on the wire, the fault counters — must be identical.  The same file pins
what a sink receives argument for argument, the rare completion orders
(exhausted failover, retryable errors, preliminaries around a failover and
after the final), and that a drained run leaves nothing behind.
"""

from __future__ import annotations

import dis
import hashlib
import sys
from collections import Counter
from typing import Callable, Dict, List, Sequence

import pytest
from fault_slices import (REGIONS, correctable_kv_issue, crash_and_degrade,
                          fault_windows, fingerprint, one_client_cluster,
                          open_loop_run, schedule_from_windows)
from history import RecordingSink
from hypothesis import HealthCheck, given, settings

from repro.bench.common import (
    cassandra_config_for,
    make_generator_factory,
    make_kv_issue,
)
from repro.bench.fig15_rebalance import (CLIENT_REGIONS, make_rebalance_issue,
                                         skew_workload)
from repro.cassandra_sim.config import CassandraConfig
from repro.cassandra_sim.storage import VersionedValue
from repro.faults import FaultInjector
from repro.faults.scenarios import cassandra_aliases
from repro.faults.schedule import FaultScheduleBuilder
from repro.sim.node import Node
from repro.core.cluster_spec import ClusterSpec
from repro.sim.topology import Region, round_robin_regions
from repro.workloads.arrivals import UniformArrivals
from repro.workloads.runner import ClosedLoopRunner, OpenLoopRunner
from repro.workloads.ycsb import OperationGenerator, workload_by_name

QUIESCED = {"read_sessions": 0, "write_sessions": 0, "client_pending": 0}


# ---------------------------------------------------------------------------
# runner sink ≡ Correctable under faults (the cass-open-faults-b shape, small)
# ---------------------------------------------------------------------------

def _closed_loop_run(via_correctables: bool, duration_ms: float = 5_000.0,
                     seed: int = 9):
    """fig13's shape: closed-loop threads straight on the storage clients
    (``via_correctables=True``: through Correctables)."""
    built = ClusterSpec(
        seed=seed, record_count=120, client_regions=REGIONS,
        config=CassandraConfig.fault_tolerant(),
        client_fallbacks=True).build()
    env, cluster = built.env, built.cluster
    build = correctable_kv_issue if via_correctables else make_kv_issue
    injector = FaultInjector(env, schedule=crash_and_degrade(duration_ms),
                             aliases=cassandra_aliases(cluster))
    spec = workload_by_name("B").with_distribution("zipfian")
    runners = [ClosedLoopRunner(
        scheduler=env.scheduler, issue=build(client, "CC2"),
        make_generator=make_generator_factory(spec, built.dataset, seed,
                                              f"equiv-{region}"),
        threads=3, duration_ms=duration_ms, warmup_ms=500.0,
        cooldown_ms=500.0, label=f"equiv-{region}",
        faults=injector if index == 0 else None)
        for index, (region, client) in enumerate(built.clients.items())]
    trace = env.scheduler.start_trace()
    for runner in runners:
        runner.start()
    env.run_until_idle()
    digest = hashlib.sha256(repr(trace).encode()).hexdigest()
    return digest, fingerprint(env, cluster,
                               [r.result for r in runners]), cluster


class TestRunnerSinkEqualsCorrectablesUnderFaults:
    def test_open_loop_sessions_through_crash_and_degrade(self):
        lean_trace, lean, _ = open_loop_run()
        dict_trace, classic, _ = open_loop_run(via_correctables=True)
        assert lean_trace == dict_trace
        assert lean == classic
        # The run really went through the fault machinery; only the
        # completion differs.
        assert sum(c[2] for c in lean["clients"]) > 0, "no client failover"
        assert sum(r[3] + r[4] for r in lean["replicas"]) > 0, \
            "no coordinator retry"
        assert lean["run"][0]["total"] > 500

    def test_failed_and_degraded_operations_count_alike(self):
        """Staggered crashes of every replica: some quorums downgrade, and
        while all three are down requests exhaust their failover."""
        schedule = (FaultScheduleBuilder()
                    .crash_window("replica:0", 500.0, 3_200.0)
                    .crash_window("replica:1", 800.0, 4_000.0)
                    .crash_window("replica:2", 1_000.0, 3_800.0)
                    .build())
        kwargs = dict(schedule=schedule, duration_ms=6_000.0, seed=17)
        lean_trace, lean, _ = open_loop_run(**kwargs)
        dict_trace, classic, _ = open_loop_run(via_correctables=True, **kwargs)
        assert lean_trace == dict_trace
        assert lean == classic
        run = lean["run"][0]
        assert run["failed"] > 0 and run["degraded"] > 0
        assert run["failed"] == sum(c[4] for c in lean["clients"])
        assert lean["in_flight"] == QUIESCED

    def test_closed_loop_threads_through_crash_and_degrade(self):
        lean_trace, lean, _ = _closed_loop_run(via_correctables=False)
        dict_trace, classic, _ = _closed_loop_run(via_correctables=True)
        assert lean_trace == dict_trace
        assert lean == classic

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(windows=fault_windows(2_400.0, 1_500.0))
    def test_generated_fault_schedules(self, windows):
        schedule = schedule_from_windows(windows)
        kwargs = dict(schedule=schedule, duration_ms=3_000.0,
                      rate_ops_s=120.0, sessions_per_region=4, seed=17)
        lean_trace, lean, _ = open_loop_run(**kwargs)
        dict_trace, classic, _ = open_loop_run(via_correctables=True, **kwargs)
        assert lean_trace == dict_trace
        assert lean == classic
        assert lean["in_flight"] == QUIESCED


# ---------------------------------------------------------------------------
# targeted completion orders, on a recording sink
# ---------------------------------------------------------------------------

class TestCompletionOrders:
    def test_timeout_exhaustion_delivers_one_error(self):
        env, cluster, client = one_client_cluster()
        for replica in cluster.replicas:
            replica.crash()
        read_sink, write_sink = RecordingSink(), RecordingSink()
        client.lean_read("key1", 2, True, read_sink)
        client.lean_write("key2", "x", 1, write_sink)
        env.run_until_idle()
        budget = cluster.config.client_timeout_ms * (
            cluster.config.client_retries + 1)
        assert read_sink.calls == write_sink.calls == [
            ("error", "client timeout: no coordinator responded", budget)]
        assert client.failed_requests == 2
        assert client.retries == 2 * cluster.config.client_retries
        assert client.outstanding() == (0, 0, 0)
        assert env.scheduler.pending(live_only=True) == 0

    def test_retryable_error_rotates_to_the_next_contact(self):
        env, cluster, client = one_client_cluster()
        # A joining node coordinates nothing yet, but stores what it is sent.
        cluster.replica_in(Region.FRK).ring_state = "bootstrapping"
        read_sink, write_sink = RecordingSink(), RecordingSink()
        client.lean_read("key1", 2, False, read_sink)
        client.lean_write("key2", "x", 1, write_sink)
        env.run_until_idle()
        assert read_sink.kinds() == write_sink.kinds() == ["final"]
        assert read_sink.calls[0][1] == "value1"
        # A write's ack carries the written value, stamped with its
        # timestamp; a read always says whether its preliminary matched.
        _, value, stamp, _, confirmation, degraded, matches = \
            write_sink.calls[0]
        assert (value, confirmation, degraded, matches) == \
            ("x", False, False, None)
        assert stamp is not None
        assert read_sink.calls[0][6] is not None
        assert client.retries == 2 and client.failed_requests == 0
        assert client.outstanding() == (0, 0, 0)

    def test_non_retryable_error_fails_the_request(self):
        env, cluster, client = one_client_cluster(fallbacks=False)
        cluster.replica_in(Region.FRK).ring_state = "bootstrapping"
        sink = RecordingSink()
        client.lean_read("key1", 2, False, sink)
        env.run_until_idle()
        assert sink.kinds() == ["error"]
        assert "left the ring" in sink.calls[0][1]
        assert client.failed_requests == 1
        assert client.outstanding() == (0, 0, 0)

    def test_preliminaries_around_failover_and_after_the_final(self):
        """No replica answers; a bystander node plays the coordinators so
        the arrival order is exact: the first coordinator's preliminary
        lands after the client failed over to the second (delivered: the
        operation is still open), the second coordinator's final closes the
        operation, and a preliminary after that is counted, not delivered."""
        env, cluster, client = one_client_cluster()
        for replica in cluster.replicas:
            replica.crash()
        ghost = Node("ghost", Region.IRL, env.network)
        sink = RecordingSink()
        op = client.lean_read("key1", 2, True, sink)
        timeout_ms = cluster.config.client_timeout_ms
        first, second = client._contacts[0], client._contacts[1]
        stamp = (1.0, first, 1)
        # Every attempt's request died at the crashed contacts, so the
        # operation's own record stands in for the attempt that answers.
        op.preliminary = op.best = VersionedValue("old", stamp)
        op.degraded = True
        op.refs += 3  # the three answers below, as if already under way

        def _send(continuation, args) -> None:
            assert env.network.fused_send_to(ghost, client.name, 100,
                                             continuation, args)

        at = env.scheduler.schedule_call_at
        at(timeout_ms + 50.0, _send,
           (client._fused_read_preliminary, (op, first)))
        # A confirmation: the payload is elided, the timestamp is not.
        at(timeout_ms + 100.0, _send,
           (client._fused_final, (op, True, True)))
        at(timeout_ms + 150.0, _send,
           (client._fused_read_preliminary, (op, second)))
        env.run_until_idle()

        assert sink.kinds() == ["preliminary", "final"]
        kind, value, timestamp, latency_ms, replica = sink.calls[0]
        assert (value, timestamp, replica) == ("old", stamp, first)
        assert timeout_ms + 50.0 < latency_ms < timeout_ms + 100.0
        kind, value, timestamp, latency_ms, confirmation, degraded, \
            matches = sink.calls[1]
        # A confirmation carries no value: the preliminary's is final.
        assert (value, confirmation, degraded, matches) == \
            ("old", True, True, True)
        assert client.retries == 1, "exactly one failover happened"
        assert client.late_preliminaries == 1
        assert client.failed_requests == 0
        assert client.outstanding() == (0, 0, 0)
        # The final settled the request: its re-armed timeout was cancelled.
        assert env.scheduler.pending(live_only=True) == 0


# ---------------------------------------------------------------------------
# what a sink receives, argument for argument
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fault_tolerant", [False, True],
                         ids=["fault-free", "fault-tolerant"])
class TestWhatTheSinkReceives:
    def _stack(self, fault_tolerant: bool):
        config = (CassandraConfig.fault_tolerant() if fault_tolerant
                  else cassandra_config_for("CC2"))
        return one_client_cluster(config, fallbacks=fault_tolerant)

    def test_icg_read(self, fault_tolerant):
        env, cluster, client = self._stack(fault_tolerant)
        sink = RecordingSink()
        client.lean_read("key3", 2, True, sink)
        env.run_until_idle()
        preliminary, final = sink.calls
        coordinator = cluster.replica_in(Region.FRK).name
        stamp = (0.0, "preload", 0)
        assert preliminary == ("preliminary", "value3", stamp,
                               preliminary.latency_ms, coordinator)
        assert final == ("final", "value3", stamp, final.latency_ms,
                         False, False, True)
        assert 0 < preliminary.latency_ms < final.latency_ms

    def test_missing_key_and_write_ack(self, fault_tolerant):
        env, cluster, client = self._stack(fault_tolerant)
        read_sink, write_sink = RecordingSink(), RecordingSink()
        client.lean_read("absent", 2, False, read_sink)
        client.lean_write("key4", "fresh", 1, write_sink)
        env.run_until_idle()
        (final,), (ack,) = read_sink.calls, write_sink.calls
        assert final == ("final", None, None, final.latency_ms, False, False,
                         False)
        # A write's ack carries the written value, stamped by the
        # coordinator, and makes no comparison.
        assert ack == ("final", "fresh", ack.stamp, ack.latency_ms, False,
                       False, None)
        assert ack.stamp[1] == cluster.replica_in(Region.FRK).name

    def test_errors(self, fault_tolerant):
        env, cluster, client = self._stack(fault_tolerant)
        for replica in cluster.replicas:
            replica.ring_state = "retired"
        read_sink, write_sink = RecordingSink(), RecordingSink()
        client.lean_read("key1", 2, True, read_sink)
        client.lean_write("key1", "x", 1, write_sink)
        env.run_until_idle()
        for sink in (read_sink, write_sink):
            (error,) = sink.calls
            assert error.kind == "error" and "left the ring" in error.error
        assert client.failed_requests == 2


# ---------------------------------------------------------------------------
# what a journaled fig15 operation allocates
# ---------------------------------------------------------------------------

def _builds_per_file(run: Callable[[], None],
                     paths: Sequence[str]) -> Dict[str, Counter]:
    """Per path fragment, the opcodes executed inside ``run`` by code whose
    source file contains it, with the dicts (``BUILD_MAP`` /
    ``BUILD_CONST_KEY_MAP``) and functions (``MAKE_FUNCTION``) among them
    (``sys.settrace`` with ``f_trace_opcodes``: exact)."""
    counts = {path: Counter() for path in paths}

    def on_call(frame, event, arg):
        for path in paths:
            if path in frame.f_code.co_filename:
                frame.f_trace_opcodes = True
                seen = counts[path]

                def on_opcode(frame, event, arg):
                    if event == "opcode":
                        name = dis.opname[frame.f_code.co_code[frame.f_lasti]]
                        seen["opcodes"] += 1
                        if name in ("BUILD_MAP", "BUILD_CONST_KEY_MAP"):
                            seen["dicts"] += 1
                        elif name == "MAKE_FUNCTION":
                            seen["functions"] += 1
                    return on_opcode

                return on_opcode
        return None

    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
    return counts


class TestWhatAJournaledOperationAllocates:
    def test_fig15_issuer_builds_one_journal_dict_per_completion(self):
        """200 operations of a small fig15 cell (a node joins mid-run): the
        storage client and the runner build no dict, the rebalance issuer
        defines no function, and the journal's sample is its one dict."""
        nodes, seed = 4, 3
        built = ClusterSpec(nodes=nodes, seed=seed, record_count=200,
                            config=cassandra_config_for("CC2"),
                            client_regions=CLIENT_REGIONS,
                            client_fallbacks=True).build()
        samples: List[dict] = []
        acked: dict = {}
        workload = skew_workload("zipf-0.99", "A")
        clients = [built.client_in(region) for region in CLIENT_REGIONS]
        # The dataset sets up its update-value stream on the first draw: a
        # one-time cost, paid here rather than inside the count.
        built.dataset.random_value()
        runner = OpenLoopRunner(
            scheduler=built.env.scheduler,
            issue=make_rebalance_issue(clients, built.env.scheduler.now,
                                       samples, acked),
            make_generator=lambda session_id: OperationGenerator.seeded(
                workload, built.dataset, seed, f"alloc-s{session_id}"),
            # 10 ms apart from 10 ms to 2,000 ms: exactly 200 arrivals.
            arrivals=UniformArrivals(100.0), sessions=20,
            duration_ms=2_005.0, warmup_ms=0.0, cooldown_ms=5.0,
            max_in_flight=64, policy="queue", queue_limit=256)
        joiner_region = round_robin_regions(nodes + 1)[-1]
        join = built.cluster.join_node(f"cassandra-{nodes}-{joiner_region}",
                                       joiner_region, at_ms=800.0)
        paths = ("cassandra_sim/client.py", "repro/workloads/",
                 "bench/fig15_rebalance.py")
        counts = _builds_per_file(
            lambda: (runner.run(), built.env.run_until_idle()), paths)

        assert join.done
        assert runner.result.admission.offered == 200
        assert runner.result.total_ops == len(samples) == 200
        assert acked
        for path in paths:
            assert counts[path]["opcodes"] > 200, path
        assert (counts["cassandra_sim/client.py"]["dicts"],
                counts["repro/workloads/"]["dicts"]) == (0, 0)
        assert counts["bench/fig15_rebalance.py"]["functions"] == 0
        assert counts["bench/fig15_rebalance.py"]["dicts"] == len(samples)
