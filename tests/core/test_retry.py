"""Tests for the shared retry/backoff, deadline, and circuit-breaker policies."""

import math

import pytest

from repro.core.retry import (
    BreakerState,
    CircuitBreaker,
    Deadline,
    RetryPolicy,
)


class TestRetryPolicy:
    def test_bounded_attempts(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.should_retry(0)
        assert policy.should_retry(1)
        assert not policy.should_retry(2)

    def test_zero_retries_never_retries(self):
        assert not RetryPolicy(max_retries=0).should_retry(0)

    def test_immediate_policy_has_zero_backoff(self):
        policy = RetryPolicy.immediate(3)
        assert policy.max_retries == 3
        for attempt in (1, 2, 3):
            assert policy.backoff_ms(attempt) == 0.0
            assert policy.backoff_upper_bound_ms(attempt) == 0.0

    def test_exponential_backoff_with_cap(self):
        policy = RetryPolicy(max_retries=4, base_delay_ms=10.0,
                             multiplier=2.0, cap_ms=35.0)
        assert policy.backoff_ms(1) == 10.0
        assert policy.backoff_ms(2) == 20.0
        assert policy.backoff_ms(3) == 35.0  # capped below 40
        assert policy.backoff_ms(4) == 35.0

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff_ms(0)

    def test_jitter_is_deterministic_per_seed_and_label(self):
        make = lambda label: RetryPolicy(  # noqa: E731
            max_retries=3, base_delay_ms=10.0, jitter_ms=5.0,
            seed=7, label=label)
        a = [make("x").backoff_ms(i) for i in (1, 2, 3)]
        b = [make("x").backoff_ms(i) for i in (1, 2, 3)]
        c = [make("y").backoff_ms(i) for i in (1, 2, 3)]
        assert a == b
        assert a != c
        for attempt, delay in zip((1, 2, 3), a):
            base = min(1_000.0, 10.0 * 2.0 ** (attempt - 1))
            assert base <= delay <= base + 5.0

    def test_jitter_stream_is_private_to_the_instance(self):
        a = RetryPolicy(base_delay_ms=1.0, jitter_ms=5.0, seed=3)
        b = RetryPolicy(base_delay_ms=1.0, jitter_ms=5.0, seed=3)
        first = a.backoff_ms(1)
        a.backoff_ms(1)  # advance a's stream only
        assert b.backoff_ms(1) == first

    def test_total_budget_is_worst_case(self):
        policy = RetryPolicy(max_retries=2, base_delay_ms=10.0,
                             multiplier=2.0, cap_ms=1_000.0)
        # 3 attempts x 100ms timeout + backoffs 10 + 20.
        assert policy.total_budget_ms(100.0) == 330.0

    def test_upper_bound_includes_jitter(self):
        policy = RetryPolicy(base_delay_ms=10.0, jitter_ms=4.0)
        assert policy.backoff_upper_bound_ms(1) == 14.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_ms=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_ms=-0.1)


@pytest.mark.parametrize("make", [
    lambda: RetryPolicy(max_retries=math.nan),
    lambda: RetryPolicy(base_delay_ms=math.nan),
    lambda: RetryPolicy(cap_ms=math.nan),
    lambda: RetryPolicy(jitter_ms=math.nan),
    lambda: RetryPolicy(multiplier=math.nan),
    lambda: Deadline.after(0.0, math.nan),
    lambda: CircuitBreaker(reset_timeout_ms=math.nan),
], ids=["max_retries", "base_delay_ms", "cap_ms", "jitter_ms", "multiplier",
        "deadline", "breaker_reset"])
def test_nan_is_rejected(make):
    with pytest.raises(ValueError):
        make()


class TestDeadline:
    def test_default_is_infinite(self):
        deadline = Deadline()
        assert not deadline.expired(1e12)
        assert deadline.remaining_ms(1e12) == math.inf

    def test_none_budget_is_infinite(self):
        assert Deadline.after(100.0, None).expires_at_ms == math.inf

    def test_after_budget(self):
        deadline = Deadline.after(1_000.0, 250.0)
        assert deadline.expires_at_ms == 1_250.0
        assert deadline.remaining_ms(1_100.0) == 150.0
        assert not deadline.expired(1_249.9)
        assert deadline.expired(1_250.0)
        assert deadline.remaining_ms(2_000.0) == 0.0

    def test_clamp_timeout(self):
        deadline = Deadline.after(0.0, 100.0)
        assert deadline.clamp_timeout(0.0, 400.0) == 100.0
        assert deadline.clamp_timeout(80.0, 10.0) == 10.0
        assert deadline.clamp_timeout(150.0, 10.0) == 0.0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline.after(0.0, -1.0)


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

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout_ms=-1.0)
