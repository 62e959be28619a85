"""Both runners' pooled records account completions no Cassandra run
makes by the same rules (``checkers.runner_figures`` checks the rest on
real runs, ``tests/check/test_mutants.py``).

Every test runs both shapes over an issuer that finishes each operation in
a scripted way, one operation at a time (so the closed loop's thread and
the open loop's pooled record are each reused for every operation), and
checks the :class:`RunResult` they leave behind.  The last rows replay
other stores' completions, in their shapes: a ZooKeeper ICG dequeue and a
2PC transaction.
"""

import pytest

from repro.bench.fig13_faults import _QueueOpSink
from repro.sim.scheduler import Scheduler
from repro.workloads.arrivals import UniformArrivals
from repro.workloads.runner import ClosedLoopRunner, OpenLoopRunner

LATENCY_MS = 10.0
SHAPES = ("closed", "open")


class _Script:
    """A generator whose ``n``-th operation (from 1) has type
    ``op_type(n)``."""

    def __init__(self, op_type):
        self.op_type = op_type
        self.n = 0

    def next_operation(self):
        self.n += 1
        return self.op_type(self.n), f"key{self.n % 10}", None


def _run(shape, complete, op_type=lambda n: "read"):
    """One client whose ``n``-th operation (from 1) is finished by
    ``complete(scheduler, n, sink)``; returns the run's result."""
    scheduler = Scheduler()
    issued = [0]

    def issue(op_type, key, value, sink, session_id=None):
        issued[0] += 1
        complete(scheduler, issued[0], sink)

    def make_generator(i):
        return _Script(op_type)

    windows = dict(duration_ms=1_000.0, warmup_ms=100.0, cooldown_ms=100.0)
    if shape == "closed":
        runner = ClosedLoopRunner(scheduler=scheduler, issue=issue,
                                  make_generator=make_generator, threads=1,
                                  **windows)
    else:
        # One arrival every two service times: never two in flight.
        runner = OpenLoopRunner(
            scheduler=scheduler, issue=issue, make_generator=make_generator,
            arrivals=UniformArrivals(1000.0 / (2 * LATENCY_MS)), sessions=1,
            **windows)
    result = runner.run()
    assert result.total_ops == issued[0]
    assert result.measured_ops > 10
    return result


def _alternating(n):
    return "update" if n % 2 else "read"


def _icg_read(scheduler, sink, preliminary, final, is_confirmation=False):
    """An ICG read: a preliminary view at half the latency (unless
    ``preliminary`` is None), then the final view."""
    sink.icg = True
    if preliminary is not None:
        scheduler.schedule(LATENCY_MS / 2, sink.deliver_preliminary,
                           preliminary, None, LATENCY_MS / 2)
    scheduler.schedule(LATENCY_MS, sink.deliver_final, final, None,
                       LATENCY_MS, is_confirmation)


def _divergence(result):
    d = result.divergence
    return d.matched, d.diverged, d.missing_preliminary


@pytest.mark.parametrize("shape", SHAPES)
class TestCompletionRecords:
    def test_confirmation_is_a_matched_pair(self, shape):
        # The store elided the final payload, and the client completes the
        # confirmation with the value of the preliminary it confirms.
        result = _run(shape, lambda s, n, sink: _icg_read(
            s, sink, "old", "old", is_confirmation=True))
        assert _divergence(result) == (result.measured_ops, 0, 0)
        assert result.preliminary_latency.count == result.measured_ops

    def test_plain_read_ignores_its_preliminary(self, shape):
        def complete(scheduler, n, sink):
            scheduler.schedule(LATENCY_MS / 2, sink.deliver_preliminary,
                               "old", None, LATENCY_MS / 2)
            scheduler.schedule(LATENCY_MS, sink.deliver_final, "new",
                               None, LATENCY_MS, False)

        result = _run(shape, complete)
        assert _divergence(result) == (0, 0, 0)
        assert result.preliminary_latency.count == 0
        assert result.read_latency.samples() == \
            [LATENCY_MS] * result.measured_ops

    def test_zookeeper_icg_dequeue_diverges_on_the_znode_name(self, shape):
        """fig13's queue operations: a dequeue is a read, and the record
        compares the znode each view named — a preliminary that named the
        same head is a match although the result dicts differ elsewhere."""
        def complete(scheduler, n, sink):
            sink.icg = True
            queue_sink = _QueueOpSink(sink)
            head = f"item-{n:010d}"
            final = head if n % 2 else f"item-{n + 1:010d}"
            scheduler.schedule(
                LATENCY_MS / 2, queue_sink.deliver_preliminary,
                {"item": "a", "name": head, "remaining": 2}, None,
                LATENCY_MS / 2)
            scheduler.schedule(
                LATENCY_MS, queue_sink.deliver_final,
                {"item": "a", "name": final, "remaining": 1}, None,
                LATENCY_MS)

        result = _run(shape, complete, lambda n: "dequeue")
        matched, diverged, missing = _divergence(result)
        assert matched > 0 and diverged > 0 and missing == 0
        assert abs(matched - diverged) <= 1
        assert matched + diverged == result.measured_ops
        assert result.read_latency.count == result.measured_ops
        assert result.update_latency.count == 0
        assert result.preliminary_latency.count == result.measured_ops

    def test_transaction_prepared_view_is_not_a_divergence_pair(self, shape):
        """An update-typed 2PC transaction: its PREPARED notice arrives as
        a preliminary, but the issuer does not flag it, so it lands in the
        update bucket with no preliminary latency and no pair — and leaves
        nothing for the ICG read that follows on the same record."""
        def complete(scheduler, n, sink):
            if n % 2 == 0:
                _icg_read(scheduler, sink, None, "v")
                return
            txn_id = f"manager:{n}"
            stamp = (float(n), "txn-coordinator-0", n)
            scheduler.schedule(
                LATENCY_MS / 2, sink.deliver_preliminary,
                {"txn_id": txn_id, "outcome": "commit", "speculative": True},
                None, LATENCY_MS / 2)
            scheduler.schedule(
                LATENCY_MS, sink.deliver_final,
                {"txn_id": txn_id, "outcome": "commit", "timestamp": stamp},
                stamp, LATENCY_MS)

        result = _run(shape, complete, _alternating)
        transactions = result.update_latency.count
        assert transactions > 0 and result.read_latency.count > 0
        assert transactions + result.read_latency.count == \
            result.measured_ops
        assert result.preliminary_latency.count == 0
        assert _divergence(result) == (0, 0, result.read_latency.count)
