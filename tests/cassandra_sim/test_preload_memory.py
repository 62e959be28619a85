"""What a preloaded row keeps, in an exact count.

``tracemalloc`` bytes still allocated once ``CassandraCluster.preload`` of
a 100k-record dataset returns onto a 6-node, RF-3 ring, and the peak it
reached on the way, both divided by the rows stored over all replicas.
The dataset is built before tracing starts, so what is counted is the
storage's own bookkeeping — the key space's index and key and token
columns, every replica's versions column, one version per key — plus
whatever else the preload leaves behind.  Allocation sizes differ
between CPython minor versions, so the budgets are keyed by version and
only the running interpreter's row is checked.
"""

import os
import subprocess
import sys
import tracemalloc

import pytest

#: version -> (retained bytes per stored row, peak bytes per stored row
#: while the preload ran), as counted when the row was last set: 3.11 was
#: 102.19 / 111.24 with a private int per row in every key index, shared
#: row positions lowered it to 78.99 / 88.04, and one key space per
#: cluster with one version object per key to 60.97 / 69.41.  The
#: budget is the count times ``_ROOM``: a +2 % change fails.  Lowering a
#: row is how a saving is recorded; raising one is a decision, not a fix
#: for a red test.
_BUDGETS = {
    (3, 11): (60.97, 69.41),
}
_ROOM = 1.01


def _preload_bytes_per_row():
    """One fresh preload: (retained, peak) traced bytes per stored row."""
    from repro.bench.common import cassandra_config_for
    from repro.core.cluster_spec import ClusterSpec

    built = ClusterSpec(seed=7, record_count=100_000, nodes=6, preload=False,
                        config=cassandra_config_for("CC2")).build()
    items = built.dataset.initial_items()
    tracemalloc.start()
    try:
        built.cluster.preload(items)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = sum(len(replica.table) for replica in built.cluster.replicas)
    return retained / rows, peak / rows


def test_preload_bytes_per_row():
    row = _BUDGETS.get(sys.version_info[:2])
    if row is None:
        pytest.skip("no preload memory budget recorded for CPython %d.%d; "
                    "measure and add a row to _BUDGETS" % sys.version_info[:2])
    # A fresh process, so the count does not depend on what ran before.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, __file__], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    retained, peak = map(float, done.stdout.split())
    for what, measured, budget in (("retained", retained, row[0]),
                                   ("peak", peak, row[1])):
        assert measured <= budget * _ROOM, \
            f"{what}: {measured:.2f} bytes per stored row against {budget:.2f}"


if __name__ == "__main__":
    print("%r %r" % _preload_bytes_per_row())
