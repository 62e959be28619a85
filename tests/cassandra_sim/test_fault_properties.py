"""What the request path owes its callers under faults, checked directly.

No second implementation to compare against: operations are issued straight
at the storage clients through crash / partition / degrade / slow windows
(and through ring changes) and recorded as one history
(``tests/check/history.py``).  ``checkers.well_formed`` judges it — every
operation gets exactly one final, ack or error and nothing after it, every
view holds a value written to its key (so a delivery into the wrong
operation shows), a read's final is an answering attempt's newest version
and no attempt answers older than the preliminary it flushed, ``degraded``
is set exactly when the coordinator answered below the quorum asked — and
what is left behind is checked too: ``bench.common.DrainCheck`` (pools
balanced, nothing in flight), no live event, and once the faults heal and
read repair has run, replicas agree.
"""

from __future__ import annotations

import math

import pytest
from checkers import well_formed
from fault_slices import fault_windows, schedule_from_windows
from history import RecordingSink
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)
from runs import KEYS, drive, machinery_run, small_cluster

from repro.bench.common import DrainCheck
from repro.cassandra_sim.client import CassandraClient
from repro.cassandra_sim.config import CassandraConfig
from repro.faults.schedule import FaultScheduleBuilder
from repro.sim.topology import Region

QUIESCED = {"read_sessions": 0, "write_sessions": 0, "client_pending": 0}


def _assert_clean(env, cluster, history, drain) -> None:
    assert well_formed(history) == []
    drain.verify(cluster)
    assert env.scheduler.pending(live_only=True) == 0


def _assert_converges(env, cluster, clients) -> None:
    """Faults are over: one R=RF read per key lets read repair finish the
    job, after which every owner holds the same version."""
    sinks = [RecordingSink() for _ in KEYS]
    for key, sink in zip(KEYS, sinks):
        clients[0].lean_read(key, cluster.config.replication_factor, False,
                             sink)
    env.run_until_idle()
    assert all(len(sink.answers) == 1 for sink in sinks)
    for key in KEYS:
        versions = {cluster.replica_by_name(name).table.get(key)
                    for name in cluster.partitioner.replicas_for(key)}
        assert len(versions) == 1, (key, versions)


class TestUnderGeneratedFaults:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(windows=fault_windows(1_600.0, 1_200.0),
           seed=st.integers(min_value=1, max_value=10_000))
    # A read fails over; the retry's preliminary is newer than the final
    # the first attempt answers with.
    @example(windows=[("crash", 0, 0, 50.0, 20.0),
                      ("crash", 0, 0, 150.0, 28.0),
                      ("slow", 1, 0, 146.0, 120.0)], seed=1)
    def test_every_operation_completes_once_and_nothing_is_left(
            self, windows, seed):
        drain = DrainCheck("generated faults")
        env, cluster, clients = small_cluster(seed=seed)
        history = drive(env, cluster, clients, schedule_from_windows(
            windows, extra_ms=60.0, slow_factor=40.0), 2_000.0, seed)
        assert len(history.ops) > 300
        _assert_clean(env, cluster, history, drain)
        _assert_converges(env, cluster, clients)

    def test_the_fault_machinery_really_ran(self):
        """The same drive through a schedule known to bite: failovers,
        coordinator retries, downgrades and failures all happen, and the
        history is still well formed."""
        drain = DrainCheck("machinery")
        env, cluster, clients, history = machinery_run()
        _assert_clean(env, cluster, history, drain)
        replicas = cluster.replicas
        assert sum(c.retries for c in clients) > 0
        assert sum(c.failed_requests for c in clients) > 0
        assert sum(r.read_retries + r.write_retries for r in replicas) > 0
        assert any(op.answers[0][0] == "final" and op.answers[0].degraded
                   for op in history.ops)
        _assert_converges(env, cluster, clients)


class TestPoolAccountingAcrossRingChanges:
    def test_join_decommission_and_a_crash_mid_fan_out_leak_nothing(self):
        """Forwarded writes and stale-epoch rescues are ordinary counted
        hops (they used to take their record out of the pool for good, and
        out of the accounting with it): through a join, the decommission of
        a client's contact and a replica crash while fan-outs are in the
        air, every record comes back and the history is well formed."""
        drain = DrainCheck("ring changes")
        env, cluster, clients = small_cluster(nodes=6, seed=33,
                                              stream_batch_items=4)
        contact = clients[0].contact
        leave = []
        join = cluster.join_node(
            f"cassandra-6-{Region.FRK}", Region.FRK, at_ms=200.0,
            on_complete=lambda _: leave.append(
                cluster.decommission_node(contact)))
        # Crashes on either side of the ring changes (range streaming is
        # stop-and-wait without retransmission: a crash inside it stalls it).
        schedule = (FaultScheduleBuilder()
                    .crash_window("replica:4", 30.0, 140.0)
                    .crash_window("replica:2", 1_000.0, 300.0).build())
        history = drive(env, cluster, clients, schedule, 1_500.0, seed=33,
                        rate_ops_s=900.0)
        _assert_clean(env, cluster, history, drain)
        assert join.done and leave and leave[0].done
        assert cluster.total("writes_forwarded") > 0
        assert cluster.total("stale_epoch_retries") > 0
        assert clients[0].retries > 0, "nobody rotated off the retired contact"
        assert env.network.messages_dropped > 0, "the crash dropped nothing"


class TestBadSpecsFailLoudly:
    @pytest.mark.parametrize("field", [
        "read_timeout_ms", "write_timeout_ms", "client_timeout_ms",
        "coordinator_retries", "client_retries"])
    def test_negative_timeouts_and_retries_are_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            CassandraConfig(**{field: -1})

    @pytest.mark.parametrize("field", ["coordinator_retries",
                                       "client_retries"])
    def test_nan_retries_are_rejected(self, field):
        """A retry count is compared with ``<``, and ``n < nan`` is never
        true: NaN would turn retries off without a word, so it fails at
        construction instead."""
        with pytest.raises(ValueError, match=field):
            CassandraConfig(**{field: math.nan})

    @pytest.mark.parametrize("field, value", [
        (field, -1.0) for field in (
            "read_service_ms", "write_service_ms", "preliminary_flush_ms",
            "stream_scan_ms", "stream_batch_ms", "stream_apply_ms_per_item",
            "key_size_bytes", "response_overhead_bytes",
            "confirmation_bytes")] + [
        ("value_size_bytes", 0)] + [
        (field, value) for field in (
            "replication_factor", "vnodes_per_node", "stream_batch_items",
            "value_size_bytes")
        for value in (math.nan, 2.5, math.inf, True)] + [
        (field, value) for field in ("coordinator_retries", "client_retries")
        for value in (2.5, True)])
    def test_negative_costs_and_sizes_are_rejected(self, field, value):
        """A negative service time would schedule a job before ``now`` and
        run the simulated clock backwards; a negative size undercounts
        bytes; a count or a size that is not an int (NaN, 2.5, inf) failed
        only at ``build()`` as a float range bound, and ``True`` passed as
        the int 1 (a one-replica ring).  All fail at construction, as plain
        and as fault-tolerant configs."""
        with pytest.raises(ValueError, match=field):
            CassandraConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            CassandraConfig.fault_tolerant(**{field: value})

    @pytest.mark.parametrize("field", [
        "read_timeout_ms", "write_timeout_ms", "client_timeout_ms",
        "read_service_ms", "write_service_ms", "preliminary_flush_ms",
        "stream_scan_ms", "stream_batch_ms", "stream_apply_ms_per_item"])
    def test_nan_costs_are_rejected(self, field):
        """``nan < 0`` is False, so a ``< 0`` check let NaN through: a
        NaN read service time finished reads with latency NaN and left the
        simulated clock at NaN."""
        with pytest.raises(ValueError, match=field):
            CassandraConfig(**{field: math.nan})

    @pytest.mark.parametrize("field", [
        "read_timeout_ms", "write_timeout_ms", "client_timeout_ms",
        "read_service_ms", "write_service_ms", "preliminary_flush_ms",
        "stream_scan_ms", "stream_batch_ms", "stream_apply_ms_per_item",
        "key_size_bytes", "response_overhead_bytes", "confirmation_bytes"])
    def test_infinite_costs_sizes_and_timeouts_are_rejected(self, field):
        """An infinite service time finishes no job and leaves the
        simulated clock at inf, an infinite size makes a wire size inf, and
        a timeout already means "never" with 0: inf fails at construction
        instead of meaning any of these."""
        with pytest.raises(ValueError, match=field):
            CassandraConfig(**{field: math.inf})

    @pytest.mark.parametrize("fallbacks", [None, ["nope"]])
    def test_an_unknown_contact_fails_when_the_client_is_built(
            self, fallbacks, cassandra_setup):
        env, cluster, _ = cassandra_setup
        contact = cluster.replicas[0].name if fallbacks else "nope"
        with pytest.raises(KeyError, match="nope"):
            CassandraClient("lost", Region.IRL, env.network, contact,
                            cluster.config, fallback_contacts=fallbacks)
        # Refused before it joined the network.
        assert not env.network.has_node("lost")

    @pytest.mark.parametrize("quorum", [0, -1, 4])
    def test_unreachable_quorums_are_rejected(self, quorum, cassandra_setup):
        from repro.bindings.cassandra import CassandraBinding

        env, cluster, client = cassandra_setup
        sink = RecordingSink()
        with pytest.raises(ValueError, match="quorum"):
            client.lean_read("key1", quorum, False, sink)
        with pytest.raises(ValueError, match="quorum"):
            client.lean_write("key1", "v", quorum, sink)
        with pytest.raises(ValueError, match="quorum"):
            CassandraBinding(client, write_quorum=quorum)
        if quorum != 0:  # 0 and 1 fail the older "at least 2" check first
            with pytest.raises(ValueError, match="quorum"):
                CassandraBinding(client, strong_read_quorum=quorum)
        assert client.reads_sent == client.writes_sent == 0
        assert cluster.in_flight() == QUIESCED
