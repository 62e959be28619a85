"""The checkers catch the bugs they exist for.

Each test wraps one method in a seeded bug and asserts that a checker
reports it on a real run that is clean without it (the clients bind their
continuations when built, so each bug is in place before its run builds
its cluster).  The six named tests are the store's and the runners' bugs
the checkers were built for; the table is every other way a runner's
record could miscount, on both loops.
"""

import inspect

import pytest
from checkers import runner_figures, well_formed
from runs import confirmation_run, load_run, machinery_run

from repro.cassandra_sim.client import CassandraClient
from repro.cassandra_sim.replica import CassandraReplica
from repro.faults.schedule import FaultScheduleBuilder
from repro.metrics.divergence import DivergenceCounter
from repro.workloads import runner

#: Every replica down in turn, then one slowed: quorums downgrade,
#: requests exhaust their failover and fail (ICG reads among them), and
#: some ICG reads hear no preliminary.
FAULTS = (FaultScheduleBuilder()
          .crash_window("replica:0", 300.0, 4_200.0)
          .crash_window("replica:1", 1_000.0, 3_500.0)
          .crash_window("replica:2", 2_000.0, 2_500.0)
          .slow_window("replica:1", 4_600.0, 800.0, factor=40.0).build())
RECORDS = {"open": runner._OpenOp, "closed": runner._ClientThread}


def _machinery():
    return well_formed(machinery_run()[3])


def _confirmations(checker):
    return lambda: checker(confirmation_run())


def _under_faults(shape):
    return lambda: runner_figures(load_run(
        seed=17, schedule=FAULTS, closed=shape == "closed",
        duration_ms=6_000.0)[1])


def _caught(monkeypatch, run, report, cls, name, bug):
    assert run() == []
    monkeypatch.setattr(cls, name, bug(getattr(cls, name)))
    problems = run()
    assert any(report in problem for problem in problems), problems


def _passing(**wrong):
    """The bug: the method is called with these arguments."""
    def bug(method):
        def call(*args, **kwargs):
            bound = inspect.signature(method).bind(*args, **kwargs)
            bound.arguments.update(wrong)
            return method(*bound.args, **bound.kwargs)
        return call
    return bug


def _reopened(method):
    """The bug: ``method`` runs as if its operation were still open."""
    def deliver(client, rec, *args):
        op = rec.op
        done, op.done = op.done, False
        if done and method.__name__ == "_fused_final":
            op.refs += 1  # the open operation's reference, dropped once
        method(client, rec, *args)
        op.done = op.done or done
    return deliver


def _icg_kept(deliver_error):
    def deliver(record, error, latency_ms):
        record.runner.result.failed_ops += 1
        record.deliver_final(None, None, latency_ms)
    return deliver


def test_a_preliminary_after_the_final(monkeypatch):
    _caught(monkeypatch, _confirmations(well_formed),
            "a preliminary after its answer", CassandraClient,
            "_fused_read_preliminary", _reopened)


def test_two_finals(monkeypatch):
    """A superseded attempt's final completes its operation again."""
    _caught(monkeypatch, _machinery, "2 answers", CassandraClient,
            "_fused_final", _reopened)


def test_a_dropped_degraded_flag(monkeypatch):
    _caught(monkeypatch, _machinery, "degraded=False with [(1, 2)]",
            CassandraReplica, "_fused_finish_read",
            _passing(degraded=False))


def test_a_failed_icg_read_counted_as_a_pair(monkeypatch):
    """The open loop's record keeps the ICG flag through a failure."""
    _caught(monkeypatch, _under_faults("open"), "missing_preliminary",
            runner._OpenOp, "deliver_error", _icg_kept)


def test_a_sticky_icg_flag(monkeypatch):
    """The closed loop's thread keeps the ICG flag after an ICG read, so
    the update it issues next is accounted as one."""
    def bug(deliver_final):
        def deliver(thread, *args):
            icg = thread.icg
            deliver_final(thread, *args)
            thread.icg = thread.icg or icg
        return deliver

    _caught(monkeypatch, _confirmations(runner_figures),
            "missing_preliminary", runner._ClientThread, "deliver_final", bug)


def test_a_final_with_the_preliminary_the_client_saw(monkeypatch):
    """A confirmation completes with the preliminary the client received
    (``None`` if it has not arrived) instead of the answering attempt's
    newest version."""
    seen = {}
    preliminary = CassandraClient._fused_read_preliminary

    def remember(client, rec, replica):
        if not rec.op.done:
            seen[rec.op] = rec.preliminary
        preliminary(client, rec, replica)

    def bug(final):
        def deliver(client, rec, is_confirmation=False, *args):
            version = seen.pop(rec.op, None)
            if is_confirmation:
                rec.best = version
            final(client, rec, is_confirmation, *args)
        monkeypatch.setattr(CassandraClient, "_fused_read_preliminary",
                            remember)
        return deliver

    _caught(monkeypatch, _confirmations(well_formed),
            "final None was never written", CassandraClient, "_fused_final",
            bug)


def _failure_uncounted(deliver_error):
    def deliver(record, error, latency_ms):
        result = record.runner.result
        deliver_error(record, error, latency_ms)
        result.failed_ops -= 1
    return deliver


def _pooled_icg_kept(acquire):
    def sticky(cls, *args):
        icg = cls._pool[-1].icg if cls._pool else False
        op = acquire(*args)
        op.icg = icg
        return op
    return classmethod(sticky)


def _bucket_by_answer(final):
    def deliver(record, value, *args):
        setattr(record, "op_type" if type(record) is runner._OpenOp
                else "_op_type", "update" if value is None else "read")
        final(record, value, *args)
    return deliver


MISCOUNTS = [
    (shape, record, name, bug, report) for shape in RECORDS
    for record, name, bug, report in (
        (DivergenceCounter, "record_outcome", _passing(diverged=False),
         "diverged"),
        (DivergenceCounter, "record_outcome", _passing(had_preliminary=True),
         "missing_preliminary"),
        (None, "deliver_final", _passing(degraded=False), "degraded_ops"),
        (None, "deliver_error", _failure_uncounted, "failed_ops"),
        (None, "deliver_final", _bucket_by_answer, "update"))] + [
    ("closed", None, "deliver_error", _icg_kept, "recorded"),
    ("open", None, "acquire", _pooled_icg_kept, "missing_preliminary")]


@pytest.mark.parametrize(
    "shape, record, name, bug, report", MISCOUNTS,
    ids=[f"{shape}-{name}-{report}" for shape, _, name, _, report
         in MISCOUNTS])
def test_a_record_that_miscounts(monkeypatch, shape, record, name, bug,
                                 report):
    _caught(monkeypatch, _under_faults(shape), report,
            record or RECORDS[shape], name, bug)
