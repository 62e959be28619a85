"""What the request path owes its callers under faults, checked directly.

No second implementation to compare against: operations are issued straight
at the storage clients through crash / partition / degrade / slow windows
(and through ring changes), and the properties are stated on what the sinks
saw and on what is left behind —

* every issued operation completes into its sink exactly once, with a final,
  an ack or an error, and nothing reaches the sink after that;
* a preliminary never follows its final (it is counted in
  ``late_preliminaries`` instead);
* a sink the issuer reused for a later operation is never touched by an
  attempt of an earlier one (values name their key, so a crossed delivery
  shows);
* pools balance, nothing stays in flight, no live event remains;
* once the faults heal and read repair has run, replicas agree.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional

import pytest
from fault_slices import REGIONS, fault_windows, schedule_from_windows
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cassandra_sim.client import CassandraClient
from repro.cassandra_sim.cluster import CassandraCluster
from repro.cassandra_sim.config import CassandraConfig
from repro.cassandra_sim.coordinator import FusedRead, FusedWrite
from repro.faults import FaultInjector
from repro.faults.scenarios import cassandra_aliases
from repro.faults.schedule import FaultSchedule, FaultScheduleBuilder
from repro.sim.environment import SimEnvironment
from repro.sim.rand import derive_rng
from repro.sim.topology import Region

QUIESCED = {"read_sessions": 0, "write_sessions": 0, "client_pending": 0}
KEYS = [f"key{i}" for i in range(24)]


def _outstanding() -> int:
    return sum(stats["created"] + stats["reused"] - stats["recycled"]
               for stats in (FusedRead.pool_stats(), FusedWrite.pool_stats()))


class _Sink:
    """A reusable completion sink that audits every delivery it gets."""

    def __init__(self, free: List["_Sink"], problems: List[str]) -> None:
        self.free = free
        self.problems = problems
        self.key: Optional[str] = None  # None while idle (on the free list)
        self.completions = 0
        self.preliminaries = 0

    def arm(self, key: str) -> "_Sink":
        self.key = key
        self.preliminaries = 0
        return self

    def _check(self, what: str, value: Any = None) -> None:
        if self.key is None:
            self.problems.append(f"{what} delivered into an idle sink")
        elif value is not None and not value.startswith(self.key + ":"):
            self.problems.append(
                f"{what} for {self.key} carried {value!r}")

    def _complete(self) -> None:
        self.completions += 1
        self.key = None
        self.free.append(self)  # reusable from this instant on

    def deliver_preliminary(self, value, stamp, latency_ms, source=None):
        self._check("preliminary", value)
        self.preliminaries += 1

    def deliver_final(self, value, stamp, latency_ms, is_confirmation=False,
                      degraded=False, matches_preliminary=None):
        # A write's ack carries no value, so only a read's is checked.
        self._check("final", value)
        if is_confirmation and not self.preliminaries:
            self.problems.append("confirmation without a preliminary")
        self._complete()

    def deliver_error(self, error, latency_ms):
        self._check("error")
        self._complete()


def _build(nodes: int = 3, seed: int = 21, **config):
    env = SimEnvironment(seed=seed)
    members = [(f"cassandra-{i}-{REGIONS[i % 3]}", REGIONS[i % 3])
               for i in range(nodes)]
    cluster = CassandraCluster(env, CassandraConfig.fault_tolerant(**config),
                               nodes=members)
    cluster.preload({key: f"{key}:0" for key in KEYS})
    clients = [cluster.add_client(f"client-{region}", region, contact,
                                  fallbacks=True)
               for region, contact in zip(REGIONS, REGIONS[1:] + REGIONS[:1])]
    return env, cluster, clients


def _drive(env, cluster, clients, schedule: Optional[FaultSchedule],
           duration_ms: float, seed: int, rate_ops_s: float = 400.0):
    """Poisson reads (ICG, R=2) and writes (W=1/2) over a small pool of
    reused sinks; returns ``(issued, sinks, problems)`` after the drain."""
    rng = derive_rng(seed, "fault-properties")
    free: List[_Sink] = []
    sinks: List[_Sink] = []
    problems: List[str] = []
    issued = [0]
    if schedule is not None:
        FaultInjector(env, schedule=schedule,
                      aliases=cassandra_aliases(cluster)).arm()

    def _issue() -> None:
        if free:
            sink = free.pop()
        else:
            sink = _Sink(free, problems)
            sinks.append(sink)
        issued[0] += 1
        client = clients[issued[0] % len(clients)]
        key = rng.choice(KEYS)
        if rng.random() < 0.4:
            client.lean_write(key, f"{key}:{issued[0]}", rng.choice((1, 2)),
                              sink.arm(key))
        else:
            client.lean_read(key, 2, True, sink.arm(key))

    at = 0.0
    while True:
        at += rng.expovariate(rate_ops_s / 1000.0)
        if at >= duration_ms:
            break
        env.scheduler.schedule_call_at(at, _issue)
    env.run_until_idle()
    return issued[0], sinks, problems


def _assert_clean(env, cluster, issued, sinks, problems, before) -> None:
    assert problems == []
    assert sum(sink.completions for sink in sinks) == issued
    assert all(sink.key is None for sink in sinks), "an operation never ended"
    assert cluster.in_flight() == QUIESCED
    assert env.scheduler.pending(live_only=True) == 0
    assert _outstanding() == before, "a record leaked"


def _assert_converges(env, cluster, clients) -> None:
    """Faults are over: one R=RF read per key lets read repair finish the
    job, after which every owner holds the same version."""
    done: List[str] = []

    class _Done:
        def deliver_final(self, value, *rest):
            done.append(value)

        def deliver_error(self, error, latency_ms):
            done.append(error)

    for key in KEYS:
        clients[0].lean_read(key, cluster.config.replication_factor, False,
                             _Done())
    env.run_until_idle()
    assert len(done) == len(KEYS)
    for key in KEYS:
        versions = {cluster.replica_by_name(name).table.get(key)
                    for name in cluster.partitioner.replicas_for(key)}
        assert len(versions) == 1, (key, versions)


class TestUnderGeneratedFaults:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(windows=fault_windows(1_600.0, 1_200.0),
           seed=st.integers(min_value=1, max_value=10_000))
    def test_every_operation_completes_once_and_nothing_is_left(
            self, windows, seed):
        before = _outstanding()
        env, cluster, clients = _build(seed=seed)
        issued, sinks, problems = _drive(env, cluster, clients,
                                         schedule_from_windows(
                                             windows, extra_ms=60.0,
                                             slow_factor=40.0),
                                         2_000.0, seed)
        assert issued > 300
        _assert_clean(env, cluster, issued, sinks, problems, before)
        _assert_converges(env, cluster, clients)
        assert _outstanding() == before

    def test_the_fault_machinery_really_ran(self):
        """The same drive through a schedule known to bite: failovers,
        coordinator retries, downgrades and failures all happen, and the
        properties still hold."""
        before = _outstanding()
        schedule = (FaultScheduleBuilder()
                    .slow_window("replica:1", 100.0, 1_500.0, factor=120.0)
                    .crash_window("replica:0", 300.0, 1_400.0)
                    .crash_window("replica:2", 900.0, 700.0)
                    .build())
        env, cluster, clients = _build(seed=4)
        issued, sinks, problems = _drive(env, cluster, clients, schedule,
                                         2_400.0, seed=4)
        _assert_clean(env, cluster, issued, sinks, problems, before)
        replicas = cluster.replicas
        assert sum(c.retries for c in clients) > 0
        assert sum(c.failed_requests for c in clients) > 0
        assert sum(r.read_retries + r.write_retries for r in replicas) > 0
        assert sum(r.reads_downgraded + r.writes_downgraded
                   for r in replicas) > 0
        assert len(sinks) < issued, "sinks were not actually reused"
        _assert_converges(env, cluster, clients)


class TestPoolAccountingAcrossRingChanges:
    def test_join_decommission_and_a_crash_mid_fan_out_leak_nothing(self):
        """Forwarded writes and stale-epoch rescues are ordinary counted
        hops (they used to take their record out of the pool for good, and
        out of the accounting with it): through a join, the decommission of
        a client's contact and a replica crash while fan-outs are in the
        air, every record comes back."""
        before = _outstanding()
        env, cluster, clients = _build(nodes=6, seed=33,
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
        issued, sinks, problems = _drive(env, cluster, clients, schedule,
                                         1_500.0, seed=33, rate_ops_s=900.0)
        assert join.done and leave and leave[0].done
        assert cluster.total_writes_forwarded() > 0
        assert cluster.total_stale_epoch_retries() > 0
        assert clients[0].retries > 0, "nobody rotated off the retired contact"
        assert env.network.messages_dropped > 0, "the crash dropped nothing"
        _assert_clean(env, cluster, issued, sinks, problems, before)


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
        for value in (math.nan, 2.5, math.inf)] + [
        ("coordinator_retries", 2.5), ("client_retries", 2.5)])
    def test_negative_costs_and_sizes_are_rejected(self, field, value):
        """A negative service time would schedule a job before ``now`` and
        run the simulated clock backwards; a negative size undercounts
        bytes; a count or a size that is not an int (NaN, 2.5, inf) failed
        only at ``build()`` as a float range bound.  All fail at
        construction, as plain and as fault-tolerant configs."""
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
        sink = _Sink([], [])
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
