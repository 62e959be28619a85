"""Tests for the znode data tree."""

import typing

import pytest
from hypothesis import example, given, strategies as st

from repro.zookeeper_sim import datatree
from repro.zookeeper_sim.datatree import DataTree, NoNodeError, NodeExistsError


class TestCreateGet:
    def test_create_and_get(self):
        tree = DataTree()
        tree.create("/a", data="hello")
        assert tree.get("/a") == "hello"
        assert tree.exists("/a")

    def test_create_nested(self):
        tree = DataTree()
        tree.create("/a")
        tree.create("/a/b", data=1)
        assert tree.get("/a/b") == 1
        assert tree.get_children("/a") == ["b"]

    def test_create_missing_parent_raises(self):
        with pytest.raises(NoNodeError):
            DataTree().create("/a/b")

    def test_duplicate_create_raises(self):
        tree = DataTree()
        tree.create("/a")
        with pytest.raises(NodeExistsError):
            tree.create("/a")

    def test_relative_path_rejected(self):
        with pytest.raises(ValueError):
            DataTree().create("no-slash")

    def test_root_cannot_be_created_or_deleted(self):
        tree = DataTree()
        with pytest.raises(ValueError):
            tree.create("/")
        with pytest.raises(ValueError):
            tree.delete("/")

    def test_get_missing_raises(self):
        with pytest.raises(NoNodeError):
            DataTree().get("/nope")


class TestSequentialNodes:
    def test_sequence_suffix_and_order(self):
        tree = DataTree()
        tree.create("/q")
        first = tree.create("/q/item-", data="a", sequential=True)
        second = tree.create("/q/item-", data="b", sequential=True)
        assert first == "/q/item-0000000000"
        assert second == "/q/item-0000000001"
        assert tree.get_children("/q") == ["item-0000000000", "item-0000000001"]

    def test_sequence_survives_deletion(self):
        tree = DataTree()
        tree.create("/q")
        first = tree.create("/q/item-", sequential=True)
        tree.delete(first)
        second = tree.create("/q/item-", sequential=True)
        assert second.endswith("0000000001")

    def test_children_sorted_lexicographically(self):
        tree = DataTree()
        tree.create("/q")
        for _ in range(12):
            tree.create("/q/item-", sequential=True)
        children = tree.get_children("/q")
        assert children == sorted(children)
        assert tree.child_count("/q") == 12


class TestDelete:
    def test_delete_removes_node(self):
        tree = DataTree()
        tree.create("/a", data=1)
        tree.delete("/a")
        assert not tree.exists("/a")

    def test_delete_missing_raises(self):
        with pytest.raises(NoNodeError):
            DataTree().delete("/a")

    def test_delete_non_leaf_rejected(self):
        tree = DataTree()
        tree.create("/a")
        tree.create("/a/b")
        with pytest.raises(ValueError):
            tree.delete("/a")

    def test_deleting_a_child_behind_the_head_keeps_the_order(self):
        tree = DataTree()
        tree.create("/q")
        for name in ("a", "b", "c"):
            tree.create(f"/q/{name}")
        tree.delete("/q/b")
        assert tree.get_children("/q") == ["a", "c"]
        assert tree.first_child("/q") == ("a", None, 1)


def test_a_full_path_cache_evicts_its_newest_entry(monkeypatch):
    """One-shot paths cannot grow the split cache past its limit: at the
    limit a new path evicts the latest entry, so the early ones stay."""
    cache = {}
    monkeypatch.setattr(datatree, "_SPLIT_CACHE", cache)
    limit = datatree._SPLIT_CACHE_LIMIT
    for i in range(limit):
        DataTree._split(f"/q/item-{i}")
    assert DataTree._split("/q/late") == ("q", "late")
    assert len(cache) == limit
    assert "/q/item-0" in cache and "/q/late" in cache
    assert f"/q/item-{limit - 1}" not in cache


@given(st.integers(min_value=1, max_value=40))
def test_fifo_order_matches_insertion_order(count):
    """Dequeuing by lowest child name yields items in insertion order."""
    tree = DataTree()
    tree.create("/q")
    for i in range(count):
        tree.create("/q/item-", data=i, sequential=True)
    drained = []
    while tree.child_count("/q"):
        head = tree.get_children("/q")[0]
        drained.append(tree.get(f"/q/{head}"))
        tree.delete(f"/q/{head}")
    assert drained == list(range(count))


def test_annotations_resolve():
    assert typing.get_type_hints(DataTree.get_children)["return"] == typing.List[str]


class TestFirstChild:
    def _queue(self, count=4):
        tree = DataTree()
        tree.create("/q")
        for i in range(count):
            tree.create("/q/item-", data=i, sequential=True)
        return tree

    def test_pop_first_child_removes_the_head_in_one_step(self):
        tree = self._queue(3)
        assert tree.pop_first_child("/q") == ("item-0000000000", 0, 2)
        assert tree.get_children("/q") == ["item-0000000001",
                                           "item-0000000002"]
        assert tree.pop_first_child("/q") == ("item-0000000001", 1, 1)
        assert tree.pop_first_child("/q") == ("item-0000000002", 2, 0)
        assert tree.pop_first_child("/q") is None

    def test_pop_first_child_errors_match_delete(self):
        tree = self._queue(1)
        tree.create("/q/item-0000000000/sub")
        with pytest.raises(ValueError) as popped:
            tree.pop_first_child("/q")
        with pytest.raises(ValueError) as deleted:
            tree.delete("/q/item-0000000000")
        assert str(popped.value) == str(deleted.value)
        with pytest.raises(NoNodeError):
            tree.pop_first_child("/nope")

    def test_first_child_skips_hidden_paths_only(self):
        tree = self._queue(4)
        hidden = {"/q/item-0000000000", "/q/item-0000000002",
                  # None of these is a child of /q:
                  "/q/ghost", "/q/item-0000000001/deeper", "/qq/x", "/q"}
        assert tree.first_child("/q", hidden) == ("item-0000000001", 1, 1)
        assert tree.first_child("/q") == ("item-0000000000", 0, 3)
        everything = {f"/q/{name}" for name in tree.get_children("/q")}
        assert tree.first_child("/q", everything) is None
        assert tree.child_count("/q") == 4

    def test_head_pops_compact_the_ordered_list(self):
        tree = self._queue(300)
        node = tree._lookup("/q")
        for popped in range(1, 281):
            head = min(node.children)
            assert tree.pop_first_child("/q")[0] == head
            if popped % 40 == 0:
                # An arbitrary name that sorts into the middle of the rest.
                tree.create(f"/q/item-{popped + 5:010d}x")
            live = tree.child_count("/q")
            assert tree.get_children("/q") == sorted(node.children)
            assert len(node.order) - live <= max(64, live)
        assert node.head < 64

    def test_get_children_returns_a_copy(self):
        tree = self._queue(3)
        tree.get_children("/q").clear()
        assert tree.child_count("/q") == len(tree.get_children("/q")) == 3


_NAMES = st.sampled_from(["a", "b", "item-", "item-0000000003", "m", "zz",
                          "item-9", "0"])
_OPS = st.one_of(
    st.tuples(st.just("sequential"), st.sampled_from(["item-", "a-", "z"])),
    st.tuples(st.just("named"), _NAMES),
    st.tuples(st.just("delete"), st.integers(min_value=0, max_value=400)),
    st.tuples(st.just("pop"), st.none()),
    st.tuples(st.just("restore"), st.none()),
)


@given(st.integers(min_value=0, max_value=200),
       st.lists(_OPS, max_size=300))
@example(preloaded=1, ops=[("sequential", "item-"), ("sequential", "item-"),
                           ("named", "item-0000000003"),
                           ("sequential", "item-")])
def test_children_stay_sorted_under_any_edit_sequence(preloaded, ops):
    """The incrementally ordered child list against ``sorted`` as the oracle:
    sequential and arbitrary names, deletes anywhere, head pops (past the
    compaction threshold) and snapshot -> restore."""
    tree = DataTree()
    tree.create("/q")
    model = {}
    for i in range(preloaded):
        name = tree.create("/q/item-", data=i, sequential=True)
        model[name.rsplit("/", 1)[1]] = i
    sequence = preloaded
    for step, (kind, arg) in enumerate(ops):
        if kind == "sequential":
            name = f"{arg}{sequence:010d}"
            sequence += 1
            if name in model:
                # A named create took this sequential name first; the
                # counter still moves on.
                with pytest.raises(NodeExistsError):
                    tree.create(f"/q/{arg}", data=step, sequential=True)
            else:
                assert tree.create(f"/q/{arg}", data=step,
                                   sequential=True) == f"/q/{name}"
                model[name] = step
        elif kind == "named":
            if arg in model:
                with pytest.raises(NodeExistsError):
                    tree.create(f"/q/{arg}", data=step)
            else:
                tree.create(f"/q/{arg}", data=step)
                model[arg] = step
        elif kind == "delete":
            if model:
                name = sorted(model)[arg % len(model)]
                tree.delete(f"/q/{name}")
                del model[name]
        elif kind == "pop":
            if model:
                name = min(model)
                assert tree.pop_first_child("/q") == (
                    name, model.pop(name), len(model))
            else:
                assert tree.pop_first_child("/q") is None
        else:
            restored = DataTree()
            restored.restore(tree.snapshot())
            tree = restored
        assert tree.get_children("/q") == sorted(model)
        assert tree.child_count("/q") == len(model)
        first = tree.first_child("/q")
        assert first == ((min(model), model[min(model)], len(model) - 1)
                         if model else None)
