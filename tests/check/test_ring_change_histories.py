"""Regression histories: ``replica:0`` of a six-node ring (seed 13) is
slowed down around the start of its decommission, under open-loop load with
timeouts on.  Requests queue behind its streaming jobs, it retires while
they wait and answers them with stale-epoch rejections.
"""

from checkers import lost_acked_writes, runner_figures, well_formed
from runs import load_run

from repro.bench.common import DrainCheck
from repro.cassandra_sim.replica import CassandraReplica
from repro.faults.schedule import FaultScheduleBuilder


def _run(factor, slow_at_ms, decommission_at_ms):
    drain = DrainCheck("decommission")
    schedule = FaultScheduleBuilder().slow_window(
        "replica:0", slow_at_ms, 2_000.0, factor=factor).build()
    cluster, history = load_run(
        seed=13, schedule=schedule, nodes=6,
        decommission=(0, decommission_at_ms))
    assert well_formed(history) == runner_figures(history) == []
    assert lost_acked_writes(history, cluster) == []
    drain.verify(cluster)


def test_a_write_rejected_as_stale_is_rereplicated(monkeypatch):
    """Slowed ×80, the replica holds write requests past their whole quorum
    wait (500 ms); the coordinator sends each rejected write again to the
    post-change owners that have not acknowledged it, which the deleted
    ``Message`` request path did not (EXPERIMENTS.md, "Stale-epoch write
    rejections")."""
    waits = []
    write_stale = CassandraReplica._fused_write_stale

    def spy(replica, rec):
        retries = replica.stale_epoch_retries
        write_stale(replica, rec)
        if replica.stale_epoch_retries > retries:
            waits.append(replica.scheduler.now() - rec.version.timestamp[0])

    monkeypatch.setattr(CassandraReplica, "_fused_write_stale", spy)
    _run(factor=80.0, slow_at_ms=300.0, decommission_at_ms=200.0)
    assert waits and min(waits) > 500.0


def test_a_read_rejected_as_stale_is_answered_by_its_new_owner(
        monkeypatch):
    """Slowed ×3, the replica rejects a read after the key's range moved
    to the read's coordinator, which answers from its own table
    (``_fused_read_stale``'s owner branch)."""
    rescued = []
    read_stale = CassandraReplica._fused_read_stale

    def spy(replica, rec):
        local = rec.local
        read_stale(replica, rec)
        if rec.local and not local:
            rescued.append(rec.key)

    monkeypatch.setattr(CassandraReplica, "_fused_read_stale", spy)
    _run(factor=3.0, slow_at_ms=250.0, decommission_at_ms=300.0)
    assert rescued
