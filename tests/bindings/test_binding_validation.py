"""Binding parameters are checked when the binding is built.

A negative delay used to pass construction and fail only once an operation
ran, with part of it applied: a primary-backup write reached the primary
and never the backup, and a cached write updated the cache and never
reached the store.  A staleness probability outside [0, 1] (NaN silently
disabled staleness) was accepted as is.
"""

import math

import pytest

from repro.bindings.cached_store import CachedStoreBinding
from repro.bindings.local import LocalBinding
from repro.bindings.primary_backup import PrimaryBackupBinding, PrimaryBackupStore
from repro.sim.scheduler import Scheduler

BAD_DELAYS = [-5.0, -1e-9, math.nan]


@pytest.mark.parametrize("bad", BAD_DELAYS)
class TestDelaysAreNonNegative:
    def test_primary_backup_replication_lag(self, bad):
        with pytest.raises(ValueError, match="replication_lag_ms"):
            PrimaryBackupStore(scheduler=Scheduler(), replication_lag_ms=bad)

    @pytest.mark.parametrize("name", ["backup_rtt_ms", "primary_rtt_ms"])
    def test_primary_backup_round_trips(self, bad, name):
        with pytest.raises(ValueError, match=name):
            PrimaryBackupBinding(scheduler=Scheduler(), **{name: bad})

    def test_cache_latency(self, bad):
        with pytest.raises(ValueError, match="cache_latency_ms"):
            CachedStoreBinding(LocalBinding(), scheduler=Scheduler(),
                               cache_latency_ms=bad)

    @pytest.mark.parametrize("name", ["weak_delay_ms", "strong_delay_ms"])
    def test_local_delays(self, bad, name):
        with pytest.raises(ValueError, match=name):
            LocalBinding(scheduler=Scheduler(), **{name: bad})


@pytest.mark.parametrize("bad", [math.nan, -0.5, 1.5, math.inf])
def test_stale_probability_is_a_probability(bad):
    with pytest.raises(ValueError, match="stale_probability"):
        LocalBinding(stale_probability=bad)


@pytest.mark.parametrize("edge", [0.0, 1.0])
def test_probability_edges_and_zero_delays_are_accepted(edge):
    scheduler = Scheduler()
    LocalBinding(scheduler=scheduler, weak_delay_ms=0.0, strong_delay_ms=0.0,
                 stale_probability=edge)
    PrimaryBackupBinding(PrimaryBackupStore(scheduler, replication_lag_ms=0.0),
                         backup_rtt_ms=0.0, primary_rtt_ms=0.0)
    CachedStoreBinding(LocalBinding(), scheduler=scheduler,
                       cache_latency_ms=0.0)
