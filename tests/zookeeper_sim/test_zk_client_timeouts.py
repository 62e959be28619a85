"""The ZooKeeper client's one timeout rule: a request with no final answer
within ``request_timeout_ms`` is re-sent at once to the server its attempt
count picks, at most ``client_retries`` times, and then fails."""

import pytest
from sinks import RecordingSink

from repro.sim.environment import SimEnvironment
from repro.sim.network import Network
from repro.sim.topology import Region
from repro.zookeeper_sim.cluster import ZooKeeperCluster
from repro.zookeeper_sim.config import ZooKeeperConfig

_TIMEOUT_MS = 100.0


def _build(config, failover=True):
    """Heartbeats off, so ``run_until_idle`` terminates."""
    env = SimEnvironment(seed=7)
    cluster = ZooKeeperCluster(env, leader_region=Region.IRL,
                               follower_regions=(Region.FRK, Region.VRG),
                               config=config)
    cluster.preload_queue("/queue", [f"item-{i}" for i in range(4)])
    client = cluster.add_client("app", Region.FRK, connect_region=Region.FRK,
                                failover=failover)
    return env, cluster, client


def _record_sends(monkeypatch, env, client):
    """``(time, server)`` of every request ``client`` puts on the wire."""
    sends = []
    send = Network.fused_send_to

    def record(network, src, dst, *args):
        if src is client:
            sends.append((env.now(), dst))
        return send(network, src, dst, *args)

    monkeypatch.setattr(Network, "fused_send_to", record)
    return sends


def _record_answers(monkeypatch, env, client):
    """The server behind every final answer sent to ``client``."""
    answers = []
    send = Network.fused_send_to

    def record(network, src, dst, size_bytes, fn, args):
        if dst == client.name and fn == client._zk_response:
            answers.append(src.name)
        return send(network, src, dst, size_bytes, fn, args)

    monkeypatch.setattr(Network, "fused_send_to", record)
    return answers


def _issue(client, kind, sink):
    if kind == "read":
        client.submit_sink("get_children", "/queue", sink)
    else:
        client.submit_sink("enqueue", "/queue", sink, "x", icg=True)


@pytest.mark.parametrize("kind", ["read", "write"])
@pytest.mark.parametrize("retries", [0, 1, 2, 3, 5])
def test_retries_rotate_then_the_request_fails(monkeypatch, retries, kind):
    config = ZooKeeperConfig(request_timeout_ms=_TIMEOUT_MS,
                             client_retries=retries)
    env, cluster, client = _build(config)
    for server in cluster.servers:
        server.crash()
    sends = _record_sends(monkeypatch, env, client)
    sink = RecordingSink()
    _issue(client, kind, sink)
    env.run_until_idle()

    # Re-sent at each timeout with no backoff, round the ensemble starting
    # at the connected server, then failed when the last attempt times out.
    rotation = [s.name for s in client._servers]
    assert rotation[0] == client.server
    assert sends == [(attempt * _TIMEOUT_MS, rotation[attempt % 3])
                     for attempt in range(retries + 1)]
    assert env.now() == config.client_patience_ms() \
        == (retries + 1) * _TIMEOUT_MS
    # One error, no preliminary (no server was up to simulate the write).
    assert sink.calls == [("error", "client timeout: no server responded",
                           config.client_patience_ms())]
    assert client.retries == retries
    assert client.failed_requests == 1
    assert cluster.in_flight()["client_pending"] == 0


def test_without_an_ensemble_the_connected_server_is_retried(monkeypatch):
    config = ZooKeeperConfig(request_timeout_ms=_TIMEOUT_MS, client_retries=2)
    env, cluster, client = _build(config, failover=False)
    for server in cluster.servers:
        server.crash()
    sends = _record_sends(monkeypatch, env, client)
    sink = RecordingSink()
    client.submit_sink("get_children", "/queue", sink)
    env.run_until_idle()

    assert sends == [(0.0, client.server), (100.0, client.server),
                     (200.0, client.server)]
    assert sink.kinds() == ["error"]
    assert client.failed_requests == 1


def test_answers_to_superseded_attempts_complete_once(monkeypatch):
    # A 1 ms timeout is shorter than any round trip: the request goes to all
    # three servers before the nearest one's answer lands, that answer
    # completes it, and the two later answers find nothing to complete.
    config = ZooKeeperConfig(request_timeout_ms=1.0, client_retries=3)
    env, cluster, client = _build(config)
    sends = _record_sends(monkeypatch, env, client)
    answers = _record_answers(monkeypatch, env, client)
    sink = RecordingSink()
    client.submit_sink("get_children", "/queue", sink)
    env.run_until_idle()

    rotation = [s.name for s in client._servers]
    assert sends == [(0.0, rotation[0]), (1.0, rotation[1]),
                     (2.0, rotation[2])]
    assert sorted(answers) == sorted(rotation)
    (final,) = sink.calls
    assert final.kind == "final" and len(final.value) == 4
    assert 2.0 < final.latency_ms < 3.0
    assert client.retries == 2
    assert client.failed_requests == 0
    assert cluster.in_flight()["client_pending"] == 0


def test_answers_after_the_client_gave_up_are_dropped(monkeypatch):
    # Four attempts 0.5 ms apart: the client fails at 2 ms, before the
    # first answer lands, and no answer turns the error into a success.
    config = ZooKeeperConfig(request_timeout_ms=0.5, client_retries=3)
    env, cluster, client = _build(config)
    answers = _record_answers(monkeypatch, env, client)
    sink = RecordingSink()
    client.submit_sink("get_children", "/queue", sink)
    env.run_until_idle()

    assert len(answers) == 4
    assert sink.calls == [("error", "client timeout: no server responded",
                           2.0)]
    assert client.retries == 3
    assert client.failed_requests == 1
    assert cluster.in_flight()["client_pending"] == 0


@pytest.mark.parametrize("timeout_ms, retries, patience_ms", [
    (0.0, 3, 0.0),          # timeouts off: the client waits forever
    (2_000.0, 3, 8_000.0),  # the fault-tolerant defaults
    (100.0, 0, 100.0),
    (250.0, 2, 750.0)])
def test_client_patience_is_every_attempt_timing_out(timeout_ms, retries,
                                                     patience_ms):
    config = ZooKeeperConfig(request_timeout_ms=timeout_ms,
                             client_retries=retries)
    assert config.client_patience_ms() == patience_ms
