"""Tests for the three-method CorrectableClient API over a scripted binding."""

import pytest

from repro.core.client import CorrectableClient
from repro.core.consistency import CACHED, CAUSAL, STRONG, WEAK
from repro.core.correctable import CorrectableState
from repro.core.errors import (
    BindingError,
    OperationError,
    UnsupportedConsistencyError,
)
from repro.core.operations import read, write


class ScriptedBinding:
    """A binding whose responses are driven manually by the test."""

    def __init__(self, levels=(WEAK, STRONG)):
        self.levels = list(levels)
        self.submissions = []

    def consistency_levels(self):
        return list(self.levels)

    def submit_operation(self, operation, levels, correctable):
        self.submissions.append({"operation": operation,
                                 "levels": list(levels),
                                 "correctable": correctable})

    # -- what the tests call to emulate storage answers ----------------------
    def sink(self, index):
        """The sink submission ``index`` completes into."""
        return self.submissions[index]["correctable"]


class TestLevelSelection:
    def test_invoke_requests_all_levels_by_default(self):
        binding = ScriptedBinding(levels=(WEAK, CAUSAL, STRONG))
        client = CorrectableClient(binding)
        client.invoke(read("k"))
        assert binding.submissions[0]["levels"] == [WEAK, CAUSAL, STRONG]

    def test_invoke_weak_requests_only_weakest(self):
        binding = ScriptedBinding(levels=(CACHED, WEAK, STRONG))
        client = CorrectableClient(binding)
        client.invoke_weak(read("k"))
        assert binding.submissions[0]["levels"] == [CACHED]

    def test_invoke_strong_requests_only_strongest(self):
        binding = ScriptedBinding()
        client = CorrectableClient(binding)
        client.invoke_strong(read("k"))
        assert binding.submissions[0]["levels"] == [STRONG]

    def test_invoke_with_subset_of_levels(self):
        binding = ScriptedBinding(levels=(WEAK, CAUSAL, STRONG))
        client = CorrectableClient(binding)
        client.invoke(read("k"), levels=[STRONG, WEAK])
        assert binding.submissions[0]["levels"] == [WEAK, STRONG]

    def test_invoke_with_unsupported_level_raises(self):
        binding = ScriptedBinding(levels=(WEAK, STRONG))
        client = CorrectableClient(binding)
        with pytest.raises(UnsupportedConsistencyError):
            client.invoke(read("k"), levels=[CAUSAL])

    def test_invoke_with_empty_levels_raises(self):
        client = CorrectableClient(ScriptedBinding())
        with pytest.raises(UnsupportedConsistencyError):
            client.invoke(read("k"), levels=[])

    def test_binding_without_levels_raises(self):
        client = CorrectableClient(ScriptedBinding(levels=()))
        with pytest.raises(BindingError):
            client.invoke(read("k"))

    def test_camelcase_aliases(self):
        binding = ScriptedBinding()
        client = CorrectableClient(binding)
        client.invokeWeak(read("k"))
        client.invokeStrong(read("k"))
        assert binding.submissions[0]["levels"] == [WEAK]
        assert binding.submissions[1]["levels"] == [STRONG]


class TestViewDelivery:
    def test_weak_then_strong_updates_then_closes(self):
        binding = ScriptedBinding()
        client = CorrectableClient(binding)
        c = client.invoke(read("k"))
        binding.sink(0).deliver_preliminary("stale", None, 1.0)
        assert c.is_updating()
        assert c.latest_view().value == "stale"
        assert c.latest_view().consistency == WEAK
        binding.sink(0).deliver_final("fresh", None, 2.0)
        assert c.is_final()
        assert c.value() == "fresh"
        assert c.final_view().consistency == STRONG

    def test_strong_arriving_first_closes_and_late_weak_is_dropped(self):
        binding = ScriptedBinding()
        client = CorrectableClient(binding)
        c = client.invoke(read("k"))
        binding.sink(0).deliver_final("fresh", None, 2.0)
        assert c.is_final()
        binding.sink(0).deliver_preliminary("stale", None, 3.0)
        assert c.value() == "fresh"
        assert c.discarded_updates == 1

    def test_single_level_invocation_closes_directly(self):
        binding = ScriptedBinding()
        client = CorrectableClient(binding)
        c = client.invoke_weak(read("k"))
        binding.sink(0).deliver_preliminary("value", None, 1.0)
        assert c.is_final()
        assert c.final_view().consistency == WEAK

    def test_error_fails_correctable(self):
        binding = ScriptedBinding()
        client = CorrectableClient(binding)
        c = client.invoke(read("missing"))
        binding.sink(0).deliver_error(OperationError("not found"), 1.0)
        assert c.state is CorrectableState.ERROR

    def test_error_after_final_is_ignored(self):
        binding = ScriptedBinding()
        client = CorrectableClient(binding)
        c = client.invoke(read("k"))
        binding.sink(0).deliver_final("v", None, 2.0)
        binding.sink(0).deliver_error("late failure", 3.0)
        assert c.is_final()

    def test_confirmation_marks_the_final_view(self):
        binding = ScriptedBinding()
        client = CorrectableClient(binding)
        c = client.invoke(read("k"))
        binding.sink(0).deliver_preliminary("the-value", None, 1.0)
        binding.sink(0).deliver_final("the-value", None, 2.0,
                                      is_confirmation=True, degraded=True)
        assert c.value() == "the-value"
        assert c.final_view().is_confirmation
        assert c.final_view().metadata == {
            "latency_ms": 2.0, "preliminary": False, "degraded": True}

    def test_metadata_is_attached_to_views(self):
        binding = ScriptedBinding()
        client = CorrectableClient(binding)
        c = client.invoke(read("k"))
        binding.sink(0).deliver_preliminary("v", None, 1.5, "r1")
        assert c.latest_view().metadata == {"latency_ms": 1.5,
                                            "preliminary": True}


class TestInstrumentation:
    def test_counters(self):
        binding = ScriptedBinding()
        client = CorrectableClient(binding)
        client.invoke(read("a"))
        client.invoke_weak(read("b"))
        client.invoke_strong(write("c", 1))
        assert client.invocations == 3
        assert client.icg_invocations == 1
        assert client.weak_invocations == 1
        assert client.strong_invocations == 1

    def test_available_levels_sorted(self):
        binding = ScriptedBinding(levels=(STRONG, WEAK))
        client = CorrectableClient(binding)
        assert client.available_levels() == [WEAK, STRONG]

    def test_clock_from_binding_timestamps_views(self):
        binding = ScriptedBinding()
        binding.clock = lambda: 123.0
        client = CorrectableClient(binding)
        c = client.invoke_strong(read("k"))
        binding.sink(0).deliver_final("v", None, 1.0)
        assert c.final_view().timestamp == 123.0


class TestSessionMultiplexing:
    def test_pool_size_and_iteration(self):
        client = CorrectableClient(ScriptedBinding())
        pool = client.sessions(5)
        assert len(pool) == 5
        assert [s.session_id for s in pool] == [0, 1, 2, 3, 4]
        assert all(s.client is client for s in pool)

    def test_pool_requires_positive_size(self):
        client = CorrectableClient(ScriptedBinding())
        with pytest.raises(ValueError):
            client.sessions(0)

    def test_round_robin_is_deterministic(self):
        pool = CorrectableClient(ScriptedBinding()).sessions(3)
        order = [pool.next_session().session_id for _ in range(7)]
        assert order == [0, 1, 2, 0, 1, 2, 0]
        assert pool.session(1) is list(pool)[1]

    def test_sessions_share_one_binding(self):
        binding = ScriptedBinding()
        pool = CorrectableClient(binding).sessions(100)
        for _ in range(100):
            pool.next_session().invoke_strong(read("k"))
        # Every invocation went through the one shared binding/client.
        assert len(binding.submissions) == 100
        assert pool.client.invocations == 100

    def test_per_session_invocation_counters(self):
        pool = CorrectableClient(ScriptedBinding()).sessions(2)
        pool.session(0).invoke(read("a"))
        pool.session(0).invoke_weak(read("b"))
        pool.session(1).invoke_strong(write("c", 1))
        assert pool.session(0).invocations == 2
        assert pool.session(1).invocations == 1
        assert pool.total_invocations() == 3

    def test_session_invocations_behave_like_the_client(self):
        binding = ScriptedBinding(levels=(WEAK, STRONG))
        session = CorrectableClient(binding).sessions(1).session(0)
        c = session.invoke(read("k"))
        binding.sink(0).deliver_preliminary("w", None, 1.0)
        binding.sink(0).deliver_final("s", None, 2.0)
        assert [v.value for v in c.views()] == ["w", "s"]
        assert c.state is CorrectableState.FINAL
        # Level validation happens once, against the shared binding.
        with pytest.raises(UnsupportedConsistencyError):
            session.invoke(read("k"), levels=[CAUSAL])

    def test_camelcase_aliases_on_sessions(self):
        binding = ScriptedBinding()
        session = CorrectableClient(binding).sessions(1).session(0)
        session.invokeWeak(read("a"))
        session.invokeStrong(read("b"))
        assert [s["levels"] for s in binding.submissions] == [[WEAK], [STRONG]]
