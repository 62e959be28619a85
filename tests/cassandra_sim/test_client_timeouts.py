"""The Cassandra client's one timeout rule: an operation with no final
answer within ``client_timeout_ms`` is re-sent at once, as a fresh attempt
record, to the contact its attempt count picks, at most ``client_retries``
times, and then fails."""

import pytest
from fault_slices import one_client_cluster
from history import RecordingSink

from repro.cassandra_sim.config import CassandraConfig
from repro.cassandra_sim.storage import VersionedValue
from repro.sim.network import Network
from repro.sim.topology import Region
from repro.workloads.arrivals import UniformArrivals
from repro.workloads.runner import ClosedLoopRunner, OpenLoopRunner

_TIMEOUT_MS = 100.0


def _record_sends(monkeypatch, env, client):
    """``(time, contact)`` of every request ``client`` puts on the wire."""
    sends = []
    send = Network.fused_send_to

    def record(network, src, dst, *args):
        if src is client:
            sends.append((env.now(), dst))
        return send(network, src, dst, *args)

    monkeypatch.setattr(Network, "fused_send_to", record)
    return sends


def _record_finals(monkeypatch, client):
    """The coordinator behind every final answer sent to ``client``."""
    finals = []
    send = Network.fused_send_to

    def record(network, src, dst, size_bytes, fn, args):
        if dst == client.name and fn == client._fused_final:
            finals.append(src.name)
        return send(network, src, dst, size_bytes, fn, args)

    monkeypatch.setattr(Network, "fused_send_to", record)
    return finals


def _issue(client, kind, sink):
    if kind == "read":
        client.lean_read("key1", 2, False, sink)
    else:
        client.lean_write("key1", "x", 2, sink)


@pytest.mark.parametrize("kind", ["read", "write"])
@pytest.mark.parametrize("retries", [0, 1, 2, 4])
def test_retries_rotate_then_the_operation_fails(monkeypatch, retries, kind):
    config = CassandraConfig.fault_tolerant(client_timeout_ms=_TIMEOUT_MS,
                                            client_retries=retries)
    env, cluster, client = one_client_cluster(config)
    for replica in cluster.replicas:
        replica.crash()
    sends = _record_sends(monkeypatch, env, client)
    sink = RecordingSink()
    _issue(client, kind, sink)
    env.run_until_idle()

    # Re-sent at each timeout with no backoff, round the contacts starting
    # at the primary one, then failed when the last attempt times out.
    contacts = client._contacts
    assert len(contacts) == 3
    assert sends == [(attempt * _TIMEOUT_MS, contacts[attempt % 3])
                     for attempt in range(retries + 1)]
    assert sink.calls == [("error", "client timeout: no coordinator "
                           "responded", (retries + 1) * _TIMEOUT_MS)]
    assert env.now() == (retries + 1) * _TIMEOUT_MS
    assert client.retries == retries
    assert client.failed_requests == 1
    assert client.outstanding() == (0, 0, 0)
    assert env.scheduler.pending(live_only=True) == 0


def test_without_fallbacks_the_primary_contact_is_retried(monkeypatch):
    config = CassandraConfig.fault_tolerant(client_timeout_ms=_TIMEOUT_MS,
                                            client_retries=2)
    env, cluster, client = one_client_cluster(config, fallbacks=False)
    for replica in cluster.replicas:
        replica.crash()
    sends = _record_sends(monkeypatch, env, client)
    sink = RecordingSink()
    client.lean_read("key1", 2, False, sink)
    env.run_until_idle()

    primary = client._contacts[0]
    assert sends == [(0.0, primary), (100.0, primary), (200.0, primary)]
    assert sink.kinds() == ["error"]
    assert client.failed_requests == 1
    assert client.outstanding() == (0, 0, 0)


def test_answers_to_superseded_attempts_complete_once(monkeypatch):
    # A 15 ms timeout is shorter than a quorum round from this client
    # (about 44 ms): the read goes to all three contacts before the first
    # final lands, that final completes it, and the later ones retire their
    # attempt records and nothing else.
    config = CassandraConfig.fault_tolerant(client_timeout_ms=15.0,
                                            client_retries=2)
    env, cluster, client = one_client_cluster(config)
    sends = _record_sends(monkeypatch, env, client)
    finals = _record_finals(monkeypatch, client)
    sink = RecordingSink()
    client.lean_read("key1", 2, False, sink)
    env.run_until_idle()

    contacts = client._contacts
    assert sends == [(0.0, contacts[0]), (15.0, contacts[1]),
                     (30.0, contacts[2])]
    assert sorted(finals) == sorted(contacts)
    assert sink.kinds() == ["final"]
    assert sink.calls[0][1] == "value1"
    assert 30.0 < sink.calls[0][3] < 45.0
    assert client.retries == 2
    assert client.failed_requests == 0
    assert client.outstanding() == (0, 0, 0)
    assert env.scheduler.pending(live_only=True) == 0


class _Reads:
    def next_operation(self):
        return "read", "key1", None


@pytest.mark.parametrize("shape", ["closed", "open"])
def test_a_confirmation_after_a_retry_s_preliminary_diverges(shape):
    """A ``*CC2`` read fails over: the retry's preliminary (``newer``, from
    the IRL replica) reaches the client, then the first attempt confirms
    its own preliminary (``value1``).  The application saw ``newer`` and
    then ``value1``, so both runners count the pair as diverged."""
    config = CassandraConfig(client_timeout_ms=500.0, client_retries=1,
                             confirmation_optimization=True)
    # The first coordinator reads from VRG (IRL is farther: a 300 ms RTT)
    # and answers in about 800 ms; the retry's coordinator answers much
    # later.
    env, cluster, client = one_client_cluster(
        config, rtts={frozenset({Region.FRK, Region.IRL}): 300.0})
    first, retry, other = cluster.replicas  # FRK, IRL, VRG
    retry.table.apply("key1", VersionedValue("newer", (1.0, retry.name, 1)))
    env.network.degrade_link(first.name, other.name, 200.0)
    env.network.degrade_link(retry.name, other.name, 600.0)
    finals = []

    def issue(op_type, key, value, record, session_id=None):
        if not finals:  # one read: later operations are never answered
            record.icg = True
            client.lean_read(key, 2, True, record)
            finals.append(record)

    windows = dict(scheduler=env.scheduler, issue=issue,
                   make_generator=lambda i: _Reads(), duration_ms=900.0,
                   warmup_ms=0.0, cooldown_ms=0.0)
    runner = (ClosedLoopRunner(threads=1, **windows) if shape == "closed"
              else OpenLoopRunner(arrivals=UniformArrivals(1000.0),
                                  sessions=1, **windows))
    divergence = runner.run().divergence
    assert client.retries == 1
    assert first.confirmations_sent == 1
    assert (divergence.matched, divergence.diverged,
            divergence.missing_preliminary) == (0, 1, 0)
