"""Unit tests for the health-aware load balancer, its circuit breakers,
and prepared-view stats."""

import pytest

from repro.txn import LoadBalancer, PreparedViewStats
from repro.txn.balancer import BreakerState, CircuitBreaker


class TestCircuitBreaker:
    def test_closed_allows_traffic(self):
        breaker = CircuitBreaker(failure_threshold=2)
        assert breaker.allow(0.0)
        assert breaker.state == BreakerState.CLOSED

    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout_ms=100.0)
        breaker.record_failure(10.0)
        assert breaker.state == BreakerState.CLOSED
        breaker.record_failure(20.0)
        assert breaker.state == BreakerState.OPEN
        assert breaker.times_opened == 1
        assert breaker.is_open(50.0)
        assert not breaker.allow(50.0)

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure(0.0)
        breaker.record_success()
        breaker.record_failure(1.0)
        assert breaker.state == BreakerState.CLOSED

    def test_half_open_admits_single_probe(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_ms=100.0)
        breaker.record_failure(0.0)
        assert not breaker.allow(99.0)
        assert breaker.allow(100.0)          # the probe
        assert breaker.state == BreakerState.HALF_OPEN
        assert not breaker.allow(101.0)      # second request: refused
        assert breaker.probes_sent == 1

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_ms=100.0)
        breaker.record_failure(0.0)
        assert breaker.allow(100.0)
        breaker.record_success()
        assert breaker.state == BreakerState.CLOSED
        assert breaker.probes_succeeded == 1
        assert breaker.allow(100.0)

    def test_probe_failure_reopens_fresh_window(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_ms=100.0)
        breaker.record_failure(0.0)
        assert breaker.allow(100.0)
        breaker.record_failure(110.0)
        assert breaker.state == BreakerState.OPEN
        assert breaker.times_opened == 2
        assert not breaker.allow(209.0)
        assert breaker.allow(210.0)


class TestLoadBalancer:
    def test_round_robin_over_healthy_nodes(self):
        balancer = LoadBalancer(["a", "b", "c"])
        assert [balancer.pick(0.0) for _ in range(4)] == ["a", "b", "c", "a"]
        assert balancer.picks == 4

    def test_preferred_wins_when_healthy(self):
        balancer = LoadBalancer(["a", "b", "c"])
        assert balancer.pick(0.0, preferred="c") == "c"
        # Unknown names are ignored, not routed to.
        assert balancer.pick(0.0, preferred="nope") == "a"

    def test_avoid_skips_the_node_that_just_failed(self):
        balancer = LoadBalancer(["a", "b"])
        assert balancer.pick(0.0, avoid="a") == "b"
        # With a single node there is no alternative: avoid is ignored.
        single = LoadBalancer(["only"])
        assert single.pick(0.0, avoid="only") == "only"

    def test_open_breaker_routes_elsewhere(self):
        balancer = LoadBalancer(["a", "b"], failure_threshold=1,
                                reset_timeout_ms=500.0)
        balancer.record_failure("a", 0.0)
        assert balancer.degraded_nodes() == ["a"]
        assert all(balancer.pick(10.0) == "b" for _ in range(3))
        assert balancer.skipped_unhealthy > 0
        assert balancer.times_opened() == 1

    def test_preferred_with_open_breaker_falls_through(self):
        balancer = LoadBalancer(["a", "b"], failure_threshold=1)
        balancer.record_failure("b", 0.0)
        assert balancer.pick(1.0, preferred="b") == "a"

    def test_fail_open_when_every_breaker_refuses(self):
        balancer = LoadBalancer(["a", "b"], failure_threshold=1,
                                reset_timeout_ms=1_000.0)
        balancer.record_failure("a", 0.0)
        balancer.record_failure("b", 0.0)
        picked = balancer.pick(1.0)
        assert picked in ("a", "b")
        assert balancer.fail_open_picks == 1

    def test_probe_success_recovers_the_node(self):
        balancer = LoadBalancer(["a", "b"], failure_threshold=1,
                                reset_timeout_ms=100.0)
        balancer.record_failure("a", 0.0)
        # After the reset window one probe is admitted; its success closes
        # the breaker and the node rejoins the rotation.
        assert balancer.health()["a"] == BreakerState.OPEN
        picks = [balancer.pick(150.0) for _ in range(2)]
        assert "a" in picks
        balancer.record_success("a")
        assert balancer.probes_succeeded() == 1
        assert balancer.health()["a"] == BreakerState.CLOSED
        assert balancer.degraded_nodes() == []

    def test_needs_at_least_one_node(self):
        with pytest.raises(ValueError):
            LoadBalancer([])


class TestPreparedViewStats:
    def test_accuracy_accounting_matrix(self):
        stats = PreparedViewStats()
        # No PREPARED view seen: the final outcome contributes nothing.
        stats.record_final(prepared_seen=False, committed=True)
        stats.record_final(prepared_seen=False, committed=False)
        assert (stats.matched, stats.mismatched) == (0, 0)
        assert stats.accuracy() is None
        # Seen + committed = the speculation was right.
        stats.record_final(prepared_seen=True, committed=True)
        stats.record_final(prepared_seen=True, committed=True)
        stats.record_final(prepared_seen=True, committed=True)
        # Seen + aborted = the one lie the PREPARED view can tell.
        stats.record_final(prepared_seen=True, committed=False)
        assert (stats.matched, stats.mismatched) == (3, 1)
        assert stats.accuracy() == pytest.approx(0.75)

    def test_unresolved_views_do_not_count_toward_accuracy(self):
        stats = PreparedViewStats()
        stats.prepared_views = 2
        stats.unresolved = 2        # e.g. client timed the transactions out
        assert stats.accuracy() is None
