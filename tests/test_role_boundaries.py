"""The election and the takeover know their node through its public face.

ZooKeeper's :class:`~repro.zookeeper_sim.zab.Election` and 2PC's
:class:`~repro.txn.takeover.Takeover` are objects their node hands itself
to, each owning its state; only ``server.py`` and ``coordinator.py`` know
the node's state layout.  Read from the source with :mod:`ast`: the two
modules import neither node module, read no underscore attribute of any
object but ``self`` (``Node._send_control``, the control plane's one send,
and ``NamedTuple._replace`` aside), and the nodes inherit from ``Node``
alone, so no role comes back as a mixin.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

_PACKAGE = Path(importlib.util.find_spec("repro").submodule_search_locations[0])
_ROLES = ("zookeeper_sim/zab.py", "txn/takeover.py")
_NODE_MODULES = ("server", "coordinator")
_PRIVATE_ALLOWED = {"_send_control", "_replace"}


def _tree(module):
    return ast.parse((_PACKAGE / module).read_text(), module)


@pytest.mark.parametrize("module", _ROLES)
def test_a_role_imports_no_node_module(module):
    imported = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
    assert not {name for name in imported
                if name.rsplit(".", 1)[-1] in _NODE_MODULES}


@pytest.mark.parametrize("module", _ROLES)
def test_a_role_reads_no_private_attribute_but_its_own(module):
    foreign = sorted(
        f"{module}:{node.lineno}: .{node.attr}"
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and node.attr not in _PRIVATE_ALLOWED
        and not (isinstance(node.value, ast.Name) and node.value.id == "self"))
    assert foreign == []


@pytest.mark.parametrize("module, name", [
    ("zookeeper_sim/server.py", "ZKServer"),
    ("txn/coordinator.py", "TwoPhaseCommitCoordinator"),
])
def test_a_node_has_no_base_but_node(module, name):
    (cls,) = [node for node in _tree(module).body
              if isinstance(node, ast.ClassDef) and node.name == name]
    assert [ast.unparse(base) for base in cls.bases] == ["Node"]
