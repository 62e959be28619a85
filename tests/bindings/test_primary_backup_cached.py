"""Tests for the primary-backup binding and the cache-fronted binding."""

import pytest

from repro.bindings.cached_store import CachedStoreBinding
from repro.bindings.local import LocalBinding
from repro.bindings.primary_backup import PrimaryBackupBinding, PrimaryBackupStore
from repro.cache.client_cache import ClientCache
from repro.core.client import CorrectableClient
from repro.core.consistency import CACHED, STRONG, WEAK
from repro.core.operations import read, write
from repro.sim.scheduler import Scheduler


class TestPrimaryBackupStore:
    def test_write_reaches_backup_after_lag(self):
        scheduler = Scheduler()
        store = PrimaryBackupStore(scheduler=scheduler, replication_lag_ms=30)
        store.write("k", "v1")
        assert store.read_primary("k") == "v1"
        assert store.backup_is_stale("k")
        scheduler.run_until_idle()
        assert store.read_backup("k") == "v1"
        assert not store.backup_is_stale("k")

    def test_without_scheduler_replication_is_immediate(self):
        store = PrimaryBackupStore()
        store.write("k", "v")
        assert store.read_backup("k") == "v"

    def test_missing_key_raises(self):
        from repro.core.errors import OperationError
        store = PrimaryBackupStore()
        with pytest.raises(OperationError):
            store.read_primary("x")
        with pytest.raises(OperationError):
            store.read_backup("x")


class TestPrimaryBackupBinding:
    def test_weak_reads_backup_strong_reads_primary(self):
        scheduler = Scheduler()
        store = PrimaryBackupStore(scheduler=scheduler, replication_lag_ms=1000)
        binding = PrimaryBackupBinding(store, scheduler=scheduler,
                                       backup_rtt_ms=5, primary_rtt_ms=50)
        store.write("k", "v1")
        scheduler.run_until_idle()
        store.write("k", "v2")          # backup still has v1 for 1000 ms
        client = CorrectableClient(binding)
        c = client.invoke(read("k"))
        scheduler.run(until=scheduler.now() + 200)
        assert c.views()[0].value == "v1"
        assert c.value() == "v2"

    def test_latency_ordering(self):
        scheduler = Scheduler()
        binding = PrimaryBackupBinding(scheduler=scheduler,
                                       backup_rtt_ms=4, primary_rtt_ms=80)
        binding.store.write("k", "v")
        scheduler.run_until_idle()
        start = scheduler.now()
        c = CorrectableClient(binding).invoke(read("k"))
        scheduler.run_until_idle()
        views = c.views()
        assert views[0].timestamp - start == pytest.approx(4.0)
        assert views[1].timestamp - start == pytest.approx(80.0)

    def test_write_goes_to_primary(self):
        binding = PrimaryBackupBinding()
        CorrectableClient(binding).invoke_strong(write("k", 9))
        assert binding.store.read_primary("k") == 9

    def test_unsupported_operation(self):
        from repro.core.operations import dequeue
        binding = PrimaryBackupBinding()
        c = CorrectableClient(binding).invoke_strong(dequeue("q"))
        assert c.is_error()


class TestCachedStoreBinding:
    def _binding(self, scheduler=None):
        inner = LocalBinding(scheduler=scheduler, weak_delay_ms=10,
                             strong_delay_ms=60)
        return CachedStoreBinding(inner, cache=ClientCache(capacity=8),
                                  scheduler=scheduler, cache_latency_ms=0.5)

    def test_advertises_three_levels(self):
        binding = self._binding()
        assert CorrectableClient(binding).available_levels() == \
            [CACHED, WEAK, STRONG]

    def test_cache_miss_then_hit(self):
        binding = self._binding()
        binding.inner.store.put("k", "v")
        client = CorrectableClient(binding)
        first = client.invoke(read("k"))
        # Miss: only weak + strong views.
        assert [v.consistency for v in first.views()] == [WEAK, STRONG]
        second = client.invoke(read("k"))
        # Hit: the cached view arrives first.
        assert [v.consistency for v in second.views()] == [CACHED, WEAK, STRONG]
        assert second.views()[0].value == "v"

    def test_write_through_updates_cache(self):
        binding = self._binding()
        client = CorrectableClient(binding)
        client.invoke_strong(write("k", "fresh"))
        assert binding.cache.get("k") == "fresh"
        assert binding.inner.store.get("k") == "fresh"

    def test_invoke_weak_served_from_cache_only(self):
        binding = self._binding()
        binding.cache.put("k", "cached-value")
        client = CorrectableClient(binding)
        c = client.invoke_weak(read("k"))
        assert c.is_final()
        assert c.value() == "cached-value"
        assert c.final_view().consistency == CACHED

    def test_invoke_strong_bypasses_cache(self):
        binding = self._binding()
        binding.cache.put("k", "stale-cached")
        binding.inner.store.put("k", "authoritative")
        client = CorrectableClient(binding)
        c = client.invoke_strong(read("k"))
        assert c.value() == "authoritative"

    def test_strong_read_refreshes_cache(self):
        binding = self._binding()
        binding.inner.store.put("k", "v1")
        client = CorrectableClient(binding)
        client.invoke_strong(read("k"))
        assert binding.cache.get("k") == "v1"

    def test_three_views_with_scheduler_ordering(self):
        scheduler = Scheduler()
        binding = self._binding(scheduler=scheduler)
        binding.inner.store.put("k", "v")
        binding.cache.put("k", "v-cached")
        client = CorrectableClient(binding)
        order = []
        c = client.invoke(read("k"))
        c.set_callbacks(on_update=lambda v: order.append(v.consistency.name),
                        on_final=lambda v: order.append(v.consistency.name))
        scheduler.run_until_idle()
        assert order == ["cached", "weak", "strong"]

    @pytest.mark.parametrize("levels", [None, [CACHED]],
                             ids=["invoke_weak", "invoke-cached-only"])
    def test_a_cold_cache_read_falls_through_to_the_weakest_level(
            self, levels):
        """Nothing cached and only the cache asked for: the read goes to the
        inner binding's weakest level, whose view closes the Correctable (it
        used to stay open with no view at all)."""
        scheduler = Scheduler()
        binding = self._binding(scheduler=scheduler)
        binding.inner.store.put("k", "v")
        client = CorrectableClient(binding)
        c = (client.invoke_weak(read("k")) if levels is None
             else client.invoke(read("k"), levels=levels))
        scheduler.run_until_idle()
        assert c.is_final()
        assert [(v.consistency, v.value) for v in c.views()] == [(WEAK, "v")]
        assert scheduler.now() == 10.0  # the weak delay, not the strong one
        # A weak read does not fill the cache; a missing key fails.
        assert binding.cache.lookup("k") == (False, None)
        missing = client.invoke_weak(read("absent"))
        scheduler.run_until_idle()
        assert missing.is_error()
