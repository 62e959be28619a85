"""What a preloaded row keeps, in an exact count.

``tracemalloc`` bytes still allocated once ``CassandraCluster.preload`` of
a 100k-record dataset returns onto a 6-node, RF-3 ring, and the peak it
reached on the way, both divided by the rows stored over all replicas.
The dataset is built before tracing starts, so what is counted is the
storage's own bookkeeping — the key space's token column and record
indices (a dataset's first preload keeps no key string and puts no key
in its dict), every replica's held column (a byte per key id; an unread
row has no version) — plus whatever else the preload leaves behind.  A
second count traces the dataset's ``initial_items()`` and the preload
together, from a dataset that has generated nothing yet: the peak of what
a cluster's set-up pays to load its data (perfbench's ``setup.preload``),
hashing and sorting the keys included.  A third count is of work, not
memory: the bytecodes executed in ``src/`` frames over ``initial_items()``
and the preload together, at the quick fig15 million-key size, per stored
row.  A fourth traces the preload and a live join of a seventh node, run
to the end, and counts the bytes still allocated per row stored over all
seven replicas: a column that went back to a pointer per key id would add
8 bytes per id on every replica, about 16 per stored row.  Allocation
sizes and bytecode counts differ between CPython minor versions, so the
budgets are keyed by version and only the running interpreter's row is
checked.
"""

import importlib.util
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import repro

#: version -> (retained bytes per stored row, peak bytes per stored row
#: while the preload ran), as counted when the row was last set: 3.11 was
#: 102.19 / 111.24 with a private int per row in every key index, shared
#: row positions lowered it to 78.99 / 88.04, one key space per cluster
#: with one version object per key to 60.97 / 69.41, and time-zero rows
#: holding one shared marker, their values kept once in the key space,
#: to 47.63 / 56.07, time-zero values read through the dataset's text
#: (no string a row) to 46.30 / 52.07, time-zero values derived from
#: the key (no value column, no permutation) to 44.96 / 50.74, and a
#: first preload's keys found by bisecting the token column (no key -> id
#: dict) to 21.50 / 36.01, and a dataset's keys kept as record indices
#: (no key string; the preload hashing and sorting no key list) to
#: 21.37 / 33.34, and a held byte per key id instead of a versions list
#: (an unread row has no version) with the keys sorted by token a bucket
#: of top bits at a time to 7.37 / 10.43.  The budget is the count times
#: ``_ROOM``: a +2 % change fails.  Lowering a row is how a saving is
#: recorded; raising one is a decision, not a fix for a red test.
_BUDGETS = {
    (3, 11): (7.37, 10.43),
}
#: version -> peak traced bytes per stored row over ``initial_items()``
#: and ``preload`` together, as counted when the row was added: 3.11 was
#: 153.90 with the dataset building a key -> value dict, 130.42 with it
#: handing the preload its key and value columns, 107.37 with the values
#: one text, sliced on first read, 72.70 with each value derived from
#: its key when read (no text drawn), 57.97 with no key -> id dict for
#: the preloaded keys, 33.34 with no key list at all (each key formatted
#: when hashed), and 10.43 with a held byte per key id and the keys sorted
#: by token a bucket at a time.  Checked against ``_ROOM`` like
#: ``_BUDGETS``.
_SETUP_BUDGETS = {
    (3, 11): 10.43,
}
#: version -> bytecodes executed in ``src/`` frames per stored row over
#: ``initial_items()`` and ``preload`` together, at 150k records (the
#: quick fig15 million-key size), as counted when the row was added: 3.11
#: was 13.07 with every initial value sliced into its own string at
#: set-up, 9.40 with the values one text, sliced on first read, 9.37
#: with each value derived from its key, 0.0201 with no key list built,
#: the keys hashed in C and each owner's runs merged as one, and 0.0197
#: with each span marked held in one slice assignment.  Checked against
#: ``_ROOM`` like ``_BUDGETS``.
_SETUP_BYTECODE_BUDGETS = {
    (3, 11): 0.0197,
}
#: version -> traced bytes still allocated per stored row after the preload
#: and a live join of a seventh node, over all seven replicas, as counted
#: when the row was added: 3.11 was 21.18 with a versions list per replica
#: and 6.85 with a held byte per key id.  Checked against ``_ROOM`` like
#: ``_BUDGETS``.
_JOIN_BUDGETS = {
    (3, 11): 6.85,
}
_ROOM = 1.01
_HOP_BUDGET = (Path(__file__).resolve().parents[1] / "sim"
               / "test_hop_budget.py")


def _build(record_count=100_000):
    from repro.bench.common import cassandra_config_for
    from repro.core.cluster_spec import ClusterSpec

    return ClusterSpec(seed=7, record_count=record_count, nodes=6,
                       preload=False,
                       config=cassandra_config_for("CC2")).build()


def _stored_rows(cluster):
    return sum(len(replica.table) for replica in cluster.replicas)


def _preload_bytes_per_row():
    """One fresh preload: (retained, peak) traced bytes per stored row."""
    built = _build()
    items = built.dataset.initial_items()
    tracemalloc.start()
    try:
        built.cluster.preload(items)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = _stored_rows(built.cluster)
    return retained / rows, peak / rows


def _setup_peak_bytes_per_row():
    """One fresh dataset -> preload: peak traced bytes per stored row."""
    built = _build()
    tracemalloc.start()
    try:
        built.cluster.preload(built.dataset.initial_items())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / _stored_rows(built.cluster)


def _join_bytes_per_row():
    """One fresh preload and a live join run to the end: traced bytes
    still allocated per stored row."""
    from repro.sim.topology import Region

    built = _build()
    items = built.dataset.initial_items()
    tracemalloc.start()
    try:
        built.cluster.preload(items)
        join = built.cluster.join_node("joiner", Region.FRK)
        built.env.run_until_idle()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert join.done
    return retained / _stored_rows(built.cluster)


def _setup_bytecodes_per_row():
    """One fresh dataset -> preload at 150k records: bytecodes executed in
    ``src/`` frames per stored row, counted as ``test_hop_budget`` counts
    a workload's."""
    spec = importlib.util.spec_from_file_location("hop_budget", _HOP_BUDGET)
    hop_budget = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hop_budget)
    built = _build(150_000)
    src = os.path.dirname(repro.__file__) + os.sep
    executed = hop_budget._bytecodes_in(
        lambda code: code.co_filename.startswith(src),
        lambda: built.cluster.preload(built.dataset.initial_items()))
    return executed / _stored_rows(built.cluster)


def _row(budgets, name):
    row = budgets.get(sys.version_info[:2])
    if row is None:
        pytest.skip("no %s recorded for CPython %d.%d; measure and add a "
                    "row" % ((name,) + sys.version_info[:2]))
    return row


def _in_fresh_process(what):
    """The counts of one measurement, in a fresh process, so they do not
    depend on what ran before."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, __file__, what], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return list(map(float, done.stdout.split()))


def test_preload_bytes_per_row():
    row = _row(_BUDGETS, "preload memory budget")
    retained, peak = _in_fresh_process("preload")
    for what, measured, budget in (("retained", retained, row[0]),
                                   ("peak", peak, row[1])):
        assert measured <= budget * _ROOM, \
            f"{what}: {measured:.2f} bytes per stored row against {budget:.2f}"


def test_dataset_and_preload_peak_bytes_per_row():
    budget = _row(_SETUP_BUDGETS, "dataset and preload memory budget")
    (peak,) = _in_fresh_process("setup")
    assert peak <= budget * _ROOM, \
        f"dataset -> preload peak: {peak:.2f} bytes per stored row " \
        f"against {budget:.2f}"


def test_dataset_and_preload_bytecodes_per_row():
    budget = _row(_SETUP_BYTECODE_BUDGETS, "dataset and preload bytecodes")
    (executed,) = _in_fresh_process("bytecodes")
    assert executed <= budget * _ROOM, \
        f"dataset -> preload: {executed:.2f} bytecodes per stored row " \
        f"against {budget:.2f}"


def test_bytes_per_row_after_a_live_join():
    budget = _row(_JOIN_BUDGETS, "memory budget after a join")
    (retained,) = _in_fresh_process("join")
    assert retained <= budget * _ROOM, \
        f"after a join: {retained:.2f} bytes per stored row " \
        f"against {budget:.2f}"


if __name__ == "__main__":
    if sys.argv[1:] == ["join"]:
        print(repr(_join_bytes_per_row()))
    elif sys.argv[1:] == ["setup"]:
        print(repr(_setup_peak_bytes_per_row()))
    elif sys.argv[1:] == ["bytecodes"]:
        print(repr(_setup_bytecodes_per_row()))
    else:
        print("%r %r" % _preload_bytes_per_row())
