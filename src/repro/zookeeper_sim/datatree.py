"""The znode data tree.

A simplified version of ZooKeeper's hierarchical namespace: znodes store a
data blob and children; ``create`` supports the *sequential* flag that
appends a zero-padded, monotonically increasing counter to the requested
name — the primitive the distributed-queue recipe is built on.

Every znode keeps its child names in sorted order as they come and go
(sequential creates append, deletes at the head advance an offset), so the
queue operations cost the same at any depth.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import AbstractSet, Any, Dict, List, Optional, Tuple

#: Memoized ``path -> components`` (every server resolves the same queue and
#: parent paths over and over; splitting is on the commit hot path).
_SPLIT_CACHE: Dict[str, Tuple[str, ...]] = {}
_SPLIT_CACHE_LIMIT = 4096
#: Deleted head names a znode carries before compacting its ordered list.
_COMPACT_MIN = 64


class NoNodeError(KeyError):
    """Raised when an operation targets a znode that does not exist."""


class NodeExistsError(ValueError):
    """Raised when creating a znode that already exists (non-sequential)."""


class Znode:
    """One node in the tree."""

    __slots__ = ("name", "data", "children", "next_sequence", "version",
                 "order", "head")

    def __init__(self, name: str, data: Any = None) -> None:
        self.name = name
        self.data = data
        self.children: Dict[str, "Znode"] = {}
        self.next_sequence = 0
        self.version = 0
        #: ``order[head:]`` is the child names in sorted order, kept so by
        #: :meth:`link` and :meth:`unlink`; names before ``head`` were
        #: deleted and await compaction.
        self.order: List[str] = []
        self.head = 0

    def link(self, child: "Znode") -> None:
        name = child.name
        order = self.order
        if self.children and name < order[-1]:
            insort(order, name, self.head)
        else:
            # Sequential names under one prefix only grow: the common case.
            order.append(name)
        self.children[name] = child
        self.version += 1

    def unlink(self, name: str) -> None:
        del self.children[name]
        self.version += 1
        order = self.order
        head = self.head
        if order[head] != name:
            del order[bisect_left(order, name, head)]
            return
        head += 1
        # Compact once the dead prefix outweighs the live names: removing
        # the head stays amortised O(1) and the list stays bounded.
        if head >= _COMPACT_MIN and head * 2 > len(order):
            del order[:head]
            head = 0
        self.head = head


class DataTree:
    """A hierarchical namespace of znodes rooted at ``/``."""

    def __init__(self) -> None:
        self._root = Znode("/")

    # -- path helpers ------------------------------------------------------
    @staticmethod
    def _split(path: str) -> Tuple[str, ...]:
        parts = _SPLIT_CACHE.get(path)
        if parts is None:
            if not path.startswith("/"):
                raise ValueError(f"paths must be absolute, got {path!r}")
            parts = tuple(part for part in path.split("/") if part)
            if len(_SPLIT_CACHE) >= _SPLIT_CACHE_LIMIT:
                # Sequential-queue workloads produce unbounded one-shot
                # paths; evict the most recent insertion (dicts pop LIFO)
                # so the long-lived hot entries (queue/parent paths, cached
                # early) survive instead of being wholesale cleared.
                _SPLIT_CACHE.popitem()
            _SPLIT_CACHE[path] = parts
        return parts

    def _lookup(self, path: str) -> Znode:
        # _split's hit path, inline: every tree walk starts here.
        parts = _SPLIT_CACHE.get(path)
        if parts is None:
            parts = self._split(path)
        node = self._root
        for part in parts:
            child = node.children.get(part)
            if child is None:
                raise NoNodeError(path)
            node = child
        return node

    def exists(self, path: str) -> bool:
        try:
            self._lookup(path)
            return True
        except NoNodeError:
            return False

    # -- operations ----------------------------------------------------------
    def create(self, path: str, data: Any = None,
               sequential: bool = False) -> str:
        """Create a znode; returns the actual path (with sequence suffix)."""
        parts = self._split(path)
        if not parts:
            raise ValueError("cannot create the root znode")
        parent_path = "/" + "/".join(parts[:-1])
        # Walk to the parent directly instead of re-splitting parent_path.
        parent = self._root
        for part in parts[:-1]:
            child = parent.children.get(part)
            if child is None:
                raise NoNodeError(parent_path)
            parent = child
        name = parts[-1]
        if sequential:
            name = f"{name}{parent.next_sequence:010d}"
            parent.next_sequence += 1
        if name in parent.children:
            raise NodeExistsError(f"{parent_path.rstrip('/')}/{name}")
        parent.link(Znode(name, data))
        created = (parent_path.rstrip("/") or "") + "/" + name
        return created

    def delete(self, path: str) -> None:
        """Delete a leaf znode (children must be removed first)."""
        parts = self._split(path)
        if not parts:
            raise ValueError("cannot delete the root znode")
        parent = self._lookup("/" + "/".join(parts[:-1])) if parts[:-1] else self._root
        name = parts[-1]
        if name not in parent.children:
            raise NoNodeError(path)
        if parent.children[name].children:
            raise ValueError(f"znode {path!r} has children")
        parent.unlink(name)

    def get(self, path: str) -> Any:
        """Return the data stored at ``path``."""
        return self._lookup(path).data

    def get_children(self, path: str) -> List[str]:
        """Sorted child names of ``path`` (sorted order drives queue FIFO)."""
        node = self._lookup(path)
        return node.order[node.head:]

    def child_count(self, path: str) -> int:
        return len(self._lookup(path).children)

    def first_child(self, path: str, hidden: AbstractSet[str] = frozenset()
                    ) -> Optional[Tuple[str, Any, int]]:
        """The first child of ``path`` whose own path is not in ``hidden``.

        Returns ``(name, data, remaining)``, ``remaining`` counting the other
        children outside ``hidden``, or ``None`` when no child is left.  The
        cost follows ``len(hidden)``, not the number of children.
        """
        node = self._lookup(path)
        children = node.children
        prefix = f"{path}/"
        cut = len(prefix)
        visible = len(children)
        for entry in hidden:
            if entry.startswith(prefix) and entry[cut:] in children:
                visible -= 1
        if not visible:
            return None
        order = node.order
        index = node.head
        while prefix + order[index] in hidden:
            index += 1
        name = order[index]
        return name, children[name].data, visible - 1

    def pop_first_child(self, path: str) -> Optional[Tuple[str, Any, int]]:
        """Delete the first child of ``path`` in one walk.

        Returns ``(name, data, remaining)`` or ``None`` when ``path`` has no
        children; raises like :meth:`delete` when the first child is not a
        leaf.
        """
        node = self._lookup(path)
        if not node.children:
            return None
        name = node.order[node.head]
        child = node.children[name]
        if child.children:
            child_path = f"{path}/{name}"
            raise ValueError(f"znode {child_path!r} has children")
        node.unlink(name)
        return name, child.data, len(node.children)

    # -- state transfer ------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A plain-dict copy of the whole tree, for full state transfer."""

        def _dump(node: Znode) -> Dict[str, Any]:
            return {"data": node.data,
                    "next_sequence": node.next_sequence,
                    "version": node.version,
                    "children": {name: _dump(child)
                                 for name, child in node.children.items()}}

        return _dump(self._root)

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Replace the entire tree with a :meth:`snapshot` copy."""

        def _load(name: str, payload: Dict[str, Any]) -> Znode:
            node = Znode(name, payload["data"])
            node.next_sequence = payload["next_sequence"]
            node.version = payload["version"]
            node.children = {child_name: _load(child_name, child)
                             for child_name, child in payload["children"].items()}
            node.order = sorted(node.children)
            return node

        self._root = _load("/", snapshot)
