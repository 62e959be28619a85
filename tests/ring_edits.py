"""A ring change applied at once, for tests of the ring itself (importable
as ``ring_edits``: ``pyproject.toml``'s pytest ``pythonpath`` puts this
directory on ``sys.path``).  Live clusters run the same two phases with
streaming in between (``CassandraCluster.join_node`` and friends)."""


def commit_change(partitioner, change):
    """``begin`` then ``commit`` a change planned by one of the
    partitioner's ``plan_*`` methods; returns the change."""
    partitioner.begin(change)
    partitioner.commit(change)
    return change
