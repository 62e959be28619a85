"""What a reader sees of a replica's ``ColumnarTable``, through its public
reads, shared by the storage suites (importable as ``table_reads``:
``pyproject.toml``'s pytest ``pythonpath`` puts this directory on
``sys.path``)."""


def rows_of(table):
    """Every stored ``(key, version)``, in sorted key order."""
    return [(key, table.get(key)) for key in table.keys()]


def stored_token(table, key):
    """The ring token of ``key``, which ``table`` must hold, read from the
    key space's token column."""
    assert key in table.keys()
    space = table._space
    return space.tokens[space.find(key)]
