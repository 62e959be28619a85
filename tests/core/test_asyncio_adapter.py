"""Tests for the asyncio bridge."""

import asyncio

import pytest

from repro.bindings.local import LocalBinding
from repro.core.asyncio_adapter import final_value, promise_to_future, view_stream
from repro.core.client import CorrectableClient
from repro.core.consistency import STRONG, WEAK
from repro.core.correctable import Correctable
from repro.core.errors import OperationError
from repro.core.operations import read, write
from repro.core.promise import Promise
from repro.sim.scheduler import Scheduler
from repro.workloads.arrivals import UniformArrivals
from repro.workloads.records import Dataset
from repro.workloads.runner import OpenLoopRunner
from repro.workloads.ycsb import WORKLOAD_A, OperationGenerator


def _run(coro):
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


class TestPromiseToFuture:
    def test_resolved_promise(self):
        async def scenario():
            promise = Promise.resolved(5)
            return await promise_to_future(promise)

        assert _run(scenario()) == 5

    def test_promise_resolved_later(self):
        async def scenario():
            promise = Promise()
            loop = asyncio.get_event_loop()
            loop.call_soon(promise.resolve, "later")
            return await promise_to_future(promise)

        assert _run(scenario()) == "later"

    def test_failed_promise_raises(self):
        async def scenario():
            promise = Promise.failed(OperationError("x"))
            return await promise_to_future(promise)

        with pytest.raises(OperationError):
            _run(scenario())


class TestFinalValue:
    def test_final_value_awaits_close(self):
        async def scenario():
            correctable = Correctable()
            loop = asyncio.get_event_loop()
            loop.call_soon(correctable.update, "weak", WEAK)
            loop.call_soon(correctable.close, "strong", STRONG)
            return await final_value(correctable)

        assert _run(scenario()) == "strong"


class TestViewStream:
    def test_yields_all_views_in_order(self):
        async def scenario():
            correctable = Correctable()
            loop = asyncio.get_event_loop()
            loop.call_soon(correctable.update, "a", WEAK)
            loop.call_soon(correctable.update, "b", WEAK)
            loop.call_soon(correctable.close, "c", STRONG)
            return [view.value async for view in view_stream(correctable)]

        assert _run(scenario()) == ["a", "b", "c"]

    def test_stream_raises_on_error(self):
        async def scenario():
            correctable = Correctable()
            loop = asyncio.get_event_loop()
            loop.call_soon(correctable.fail, OperationError("down"))
            return [view.value async for view in view_stream(correctable)]

        with pytest.raises(OperationError):
            _run(scenario())

    def test_already_closed_correctable_streams_history(self):
        async def scenario():
            correctable = Correctable()
            correctable.update("a", WEAK)
            correctable.close("b", STRONG)
            return [view.value async for view in view_stream(correctable)]

        assert _run(scenario()) == ["a", "b"]


class TestOpenLoopEndToEnd:
    """An :class:`OpenLoopRunner` whose completions flow through asyncio.

    Every operation runs the full stack — arrival process → session pool →
    ``CorrectableClient`` → ``LocalBinding`` on a simulated scheduler — but
    the views are *consumed* with the asyncio adapter (``view_stream`` for
    reads, ``final_value`` for updates) instead of raw callbacks, and the
    runner's record completes only once the awaitable side finishes.  The
    driver interleaves simulated time with asyncio turns the way a real
    deployment interleaves I/O with an event loop.
    """

    RATE_OPS_S = 100.0
    STEP_MS = 5.0

    def _build(self, seed=42):
        scheduler = Scheduler()
        binding = LocalBinding(scheduler=scheduler, weak_delay_ms=2.0,
                               strong_delay_ms=20.0)
        pool = CorrectableClient(binding).sessions(8)
        dataset = Dataset(record_count=20, seed=seed)
        for key, value in dataset.initial_items().items():
            binding.store.put(key, value)
        completions = []

        def issue(op_type, key, value, sink, session_id):
            session = pool.session(session_id)
            issued_at = scheduler.now()

            async def consume():
                if op_type == "update":
                    final = await final_value(session.invoke_strong(
                        write(key, value)))
                    views = 1
                else:
                    views = 0
                    async for view in view_stream(session.invoke(read(key))):
                        views += 1
                        final = view.value
                completions.append((op_type, key, views, final))
                latency_ms = scheduler.now() - issued_at
                if op_type == "update":
                    sink.deliver_write_ack(None, latency_ms)
                else:
                    sink.deliver_read_final(final, None, latency_ms, False)

            asyncio.ensure_future(consume())

        runner = OpenLoopRunner(
            scheduler=scheduler, issue=issue,
            make_generator=lambda i: OperationGenerator.seeded(
                WORKLOAD_A, dataset, seed, f"aio-{i}"),
            arrivals=UniformArrivals(self.RATE_OPS_S), sessions=8,
            duration_ms=1_200.0, warmup_ms=200.0, cooldown_ms=100.0,
            label="asyncio-open-loop")
        return scheduler, pool, runner, completions

    async def _drive(self, scheduler, runner):
        """Advance simulated time in slices, draining asyncio in between."""
        runner.start()
        end = runner.end_time + runner.drain_ms
        while scheduler.now() < end:
            scheduler.run(until=min(scheduler.now() + self.STEP_MS, end))
            # A completion crosses promise -> future -> coroutine -> sink;
            # a few zero-delay turns let the whole chain settle.
            for _ in range(4):
                await asyncio.sleep(0)

    def test_open_loop_run_through_adapter(self):
        async def scenario():
            scheduler, pool, runner, completions = self._build()
            await self._drive(scheduler, runner)
            return pool, runner, completions

        pool, runner, completions = _run(scenario())
        result = runner.result
        admission = result.admission
        # Every arrival was admitted (no bound), issued through a session,
        # and completed through the adapter exactly once.
        assert admission.offered > 0
        assert admission.shed == 0
        assert len(completions) == admission.admitted == result.total_ops
        assert pool.total_invocations() == admission.admitted
        assert runner._in_flight == 0
        # ICG reads stream a weak and a strong view; updates close in one.
        for op_type, _key, views, final in completions:
            assert views == (1 if op_type == "update" else 2)
            assert final is not None
        # The open loop held its offered rate and measured sane latencies
        # (service is 20 ms; the driver quantizes completion to 5 ms steps).
        assert result.offered_ops_per_sec() == pytest.approx(
            self.RATE_OPS_S, rel=0.1)
        assert result.measured_ops > 0
        assert 20.0 <= result.final_latency.mean() <= 20.0 + 2 * self.STEP_MS

    def test_adapter_driven_run_is_deterministic(self):
        def fingerprint():
            async def scenario():
                scheduler, _pool, runner, completions = self._build(seed=7)
                await self._drive(scheduler, runner)
                return (runner.result.total_ops, runner.result.measured_ops,
                        [c[:3] for c in completions])

            return _run(scenario())

        assert fingerprint() == fingerprint()
