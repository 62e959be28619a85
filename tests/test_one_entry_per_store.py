"""Each store has exactly one issuing entry.

A Cassandra operation's pooled request record is acquired only by the
client (``lean_read``/``lean_write`` and its failover re-send), and a
ZooKeeper operation's record is built only by ``ZKClient.submit_sink``:
a harness or recipe that wants to issue goes through those, so an inlined
copy of the client cannot come back unnoticed.
"""

import ast
from pathlib import Path
from typing import Iterator, List, Tuple

import repro

SRC = Path(repro.__file__).parent


def _calls(tree: ast.AST) -> Iterator[Tuple[ast.Call, List[str]]]:
    """Every call in ``tree`` with the names of its enclosing classes and
    functions, outermost first."""
    def walk(node: ast.AST, scope: List[str]):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                yield child, scope
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = scope + [child.name]
            yield from walk(child, inner)

    yield from walk(tree, [])


def _sites(is_site) -> List[str]:
    """``path:Scope.name`` of every call in ``src/repro`` that ``is_site``
    picks."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for call, scope in _calls(tree):
            if is_site(call.func):
                found.append(f"{path.relative_to(SRC).as_posix()}:"
                             f"{'.'.join(scope)}")
    return found


def _acquires_a_request_record(func: ast.AST) -> bool:
    """``FusedRead.acquire``, ``FusedWrite.acquire``, ``type(op).acquire``."""
    if not (isinstance(func, ast.Attribute) and func.attr == "acquire"):
        return False
    owner = func.value
    if isinstance(owner, ast.Name):
        return owner.id in ("FusedRead", "FusedWrite")
    return (isinstance(owner, ast.Call) and isinstance(owner.func, ast.Name)
            and owner.func.id == "type")


def test_only_the_cassandra_client_acquires_request_records():
    assert _sites(_acquires_a_request_record) == [
        "cassandra_sim/client.py:CassandraClient.lean_read",
        "cassandra_sim/client.py:CassandraClient.lean_write",
        "cassandra_sim/client.py:CassandraClient._resend",
    ]


def test_only_submit_sink_builds_a_zookeeper_operation():
    assert _sites(lambda func: isinstance(func, ast.Name)
                  and func.id == "ZkOp") == [
        "zookeeper_sim/client.py:ZKClient.submit_sink"]
