"""Tests for consistency levels and their ordering."""

import pytest
from hypothesis import given, strategies as st

from repro.core.consistency import (
    CACHED,
    CAUSAL,
    STRONG,
    WEAK,
    ConsistencyLevel,
    sort_levels,
    strongest,
    validate_levels,
    weakest,
)
from repro.core.errors import BindingError, UnsupportedConsistencyError


class TestPredefinedLevels:
    def test_canonical_ordering(self):
        assert CACHED < WEAK < CAUSAL < STRONG

    def test_strong_is_strongest(self):
        assert strongest([WEAK, STRONG, CAUSAL]) is STRONG

    def test_cached_is_weakest(self):
        assert weakest([STRONG, CACHED, WEAK]) is CACHED

    def test_names(self):
        assert WEAK.name == "weak"
        assert STRONG.name == "strong"
        assert str(CAUSAL) == "causal"

    def test_comparison_operators(self):
        assert WEAK <= WEAK
        assert STRONG >= CAUSAL
        assert not (STRONG < WEAK)
        assert STRONG > WEAK

    def test_equality_and_hash(self):
        assert WEAK == ConsistencyLevel("weak", 10)
        assert hash(WEAK) == hash(ConsistencyLevel("weak", 10))
        assert WEAK != STRONG


class TestRegistry:
    def test_register_returns_same_instance(self):
        level = ConsistencyLevel.register("weak", 10)
        assert level is WEAK

    def test_register_conflicting_strength_rejected(self):
        with pytest.raises(ValueError):
            ConsistencyLevel.register("weak", 99)

    def test_register_new_level(self):
        level = ConsistencyLevel.register("session", 15)
        assert WEAK < level < CAUSAL
        assert ConsistencyLevel.by_name("session") is level

    def test_by_name_unknown(self):
        with pytest.raises(KeyError):
            ConsistencyLevel.by_name("does-not-exist")

    def test_known_levels_sorted(self):
        levels = ConsistencyLevel.known_levels()
        strengths = [lv.strength for lv in levels]
        assert strengths == sorted(strengths)
        assert WEAK in levels and STRONG in levels


class TestSortLevels:
    def test_sorts_weakest_first(self):
        assert sort_levels([STRONG, WEAK]) == [WEAK, STRONG]

    def test_removes_duplicates(self):
        assert sort_levels([WEAK, WEAK, STRONG, WEAK]) == [WEAK, STRONG]

    def test_empty_strongest_raises(self):
        with pytest.raises(ValueError):
            strongest([])

    def test_empty_weakest_raises(self):
        with pytest.raises(ValueError):
            weakest([])

    def test_single_level(self):
        assert strongest([WEAK]) is WEAK
        assert weakest([WEAK]) is WEAK


@given(st.lists(st.sampled_from([CACHED, WEAK, CAUSAL, STRONG]), min_size=1))
def test_sort_levels_is_monotone(levels):
    ordered = sort_levels(levels)
    strengths = [lv.strength for lv in ordered]
    assert strengths == sorted(strengths)
    assert len(set(ordered)) == len(ordered)


@given(st.lists(st.sampled_from([CACHED, WEAK, CAUSAL, STRONG]), min_size=1))
def test_strongest_weakest_bracket_all(levels):
    top, bottom = strongest(levels), weakest(levels)
    for level in levels:
        assert bottom <= level <= top


class TestValidateLevels:
    """The memoised hit path must be indistinguishable from a first call."""

    def test_every_caller_gets_its_own_sorted_list(self):
        first = validate_levels([STRONG, WEAK], [WEAK, STRONG])
        assert first == [WEAK, STRONG]
        first.clear()
        assert validate_levels([STRONG, WEAK], [WEAK, STRONG]) == [WEAK, STRONG]
        assert validate_levels(iter([STRONG]), (WEAK, STRONG)) == [STRONG]

    def test_value_equal_levels_share_the_memo_and_its_verdicts(self):
        lookalike = ConsistencyLevel("weak", 10)
        assert hash(lookalike) == hash(WEAK)
        assert validate_levels([lookalike], [WEAK, STRONG]) == [WEAK]
        # Same name, other strength: a different level, so not offered.
        impostor = ConsistencyLevel("weak", 11)
        for _ in range(2):
            with pytest.raises(UnsupportedConsistencyError) as caught:
                validate_levels([impostor], [WEAK, STRONG])
            assert str(caught.value) == (
                f"requested consistency level(s) [{impostor!r}] not offered "
                f"by binding (available: [{WEAK!r}, {STRONG!r}])")

    def test_invalid_requests_raise_the_same_error_every_time(self):
        for _ in range(2):
            with pytest.raises(UnsupportedConsistencyError) as caught:
                validate_levels([CAUSAL, WEAK], [WEAK, STRONG])
            assert caught.value.requested == [CAUSAL]
            assert caught.value.available == [WEAK, STRONG]
            with pytest.raises(UnsupportedConsistencyError) as caught:
                validate_levels([], [WEAK, STRONG])
            assert str(caught.value) == (
                "requested consistency level(s) [] not offered by binding "
                f"(available: [{WEAK!r}, {STRONG!r}])")
            with pytest.raises(BindingError) as caught:
                validate_levels([WEAK], [])
            assert str(caught.value) == \
                "binding advertises no consistency levels"
            assert type(caught.value) is BindingError
