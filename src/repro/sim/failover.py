"""Client-side request failover shared by the record-carrying clients.

The ZooKeeper client and the transaction manager recover from an
unresponsive endpoint the same way: a per-request timeout fires, the request
is re-sent to the next endpoint in a rotation, and after a bounded number of
re-sends the caller gets a terminal error.  This mixin holds that machinery
once so the two stacks cannot drift apart.  (The Cassandra client applies
the same :class:`~repro.core.retry.RetryPolicy` to its pooled operation
records, which have no request-id map to hang this mixin on.)

Retry budgets and backoff come from the host's
:class:`~repro.core.retry.RetryPolicy`.  A zero backoff re-sends
synchronously — no extra scheduler event — so the default configuration
reproduces the historical event traces byte for byte.
"""

from __future__ import annotations

from typing import Any

from repro.core.retry import RetryPolicy


class FailoverMixin:
    """Timeout-driven request failover over a rotation of endpoints.

    Mixed into client :class:`~repro.sim.node.Node` subclasses.  The host
    class provides:

    * ``self.scheduler`` and ``self._pending`` (request id → pending-request
      object with ``attempts``, ``rotation_index`` and ``timeout_event``
      attributes), ``self._failover_policy`` (the :class:`RetryPolicy`),
      plus ``self.retries`` / ``self.failed_requests`` counters;
    * :meth:`_redispatch` — re-send the request to the next endpoint (and
      re-arm the timeout via :meth:`_arm_request_timeout`);
    * :meth:`_deliver_timeout_failure` — complete an exhausted request
      with the host's terminal error.
    """

    def _arm_request_timeout(self, pending: Any, req_id: int,
                             timeout_ms: float) -> None:
        if timeout_ms > 0:
            pending.timeout_event = self.scheduler.schedule(
                timeout_ms, self._on_request_timeout, req_id)

    def _on_request_timeout(self, req_id: int) -> None:
        pending = self._pending.get(req_id)
        if pending is None:
            return
        pending.timeout_event = None
        policy = self._failover_policy
        if policy.should_retry(pending.attempts):
            pending.attempts += 1
            pending.rotation_index += 1
            self.retries += 1
            self._retry_after_backoff(pending, policy)
            return
        self.failed_requests += 1
        del self._pending[req_id]
        self._deliver_timeout_failure(pending)

    def _retry_after_backoff(self, pending: Any, policy: RetryPolicy) -> None:
        """Re-send now (zero backoff) or after the policy's delay.

        The zero-delay path calls :meth:`_redispatch` synchronously rather
        than scheduling a 0 ms event — scheduling would reorder the event
        trace relative to the pre-policy implementation.
        """
        delay_ms = policy.backoff_ms(pending.attempts)
        if delay_ms <= 0:
            self._redispatch(pending)
            return
        self.scheduler.schedule(delay_ms, self._redispatch, pending)

    @staticmethod
    def _settle(pending: Any) -> None:
        """Cancel the pending timeout once a final response arrived."""
        if pending.timeout_event is not None:
            pending.timeout_event.cancel()
            pending.timeout_event = None

    # -- host hooks ---------------------------------------------------------
    def _redispatch(self, pending: Any) -> None:
        raise NotImplementedError

    def _deliver_timeout_failure(self, pending: Any) -> None:
        raise NotImplementedError
