"""Tests for the YCSB request distributions."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.distributions import (
    LatestKeyChooser,
    ScrambledZipfianKeyChooser,
    UniformKeyChooser,
    ZipfianKeyChooser,
    make_key_chooser,
)


class TestFactory:
    def test_known_names(self):
        rng = random.Random(0)
        assert isinstance(make_key_chooser("uniform", 10, rng),
                          UniformKeyChooser)
        assert isinstance(make_key_chooser("zipfian", 10, rng),
                          ZipfianKeyChooser)
        assert isinstance(make_key_chooser("latest", 10, rng),
                          LatestKeyChooser)
        assert isinstance(make_key_chooser("scrambled_zipfian", 10, rng),
                          ScrambledZipfianKeyChooser)

    def test_case_insensitive(self):
        assert isinstance(make_key_chooser("Zipfian", 10, random.Random(0)),
                          ZipfianKeyChooser)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_key_chooser("exponential", 10, random.Random(0))

    def test_zero_records_rejected(self):
        for cls in (UniformKeyChooser, ZipfianKeyChooser, LatestKeyChooser):
            with pytest.raises(ValueError):
                cls(0, random.Random(0))


class TestBounds:
    @given(st.sampled_from(["uniform", "zipfian", "latest",
                            "scrambled_zipfian"]),
           st.integers(min_value=1, max_value=500),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60)
    def test_indices_always_in_range(self, name, record_count, seed):
        chooser = make_key_chooser(name, record_count, random.Random(seed))
        for _ in range(50):
            index = chooser.next_index()
            assert 0 <= index < record_count


class TestSkew:
    def test_zipfian_head_is_popular(self):
        chooser = ZipfianKeyChooser(1000, random.Random(1))
        counts = Counter(chooser.next_index() for _ in range(20_000))
        head_share = sum(counts[i] for i in range(10)) / 20_000
        assert head_share > 0.35          # the hottest 1% gets >35% of requests

    def test_uniform_is_not_skewed(self):
        chooser = UniformKeyChooser(1000, random.Random(1))
        counts = Counter(chooser.next_index() for _ in range(20_000))
        head_share = sum(counts[i] for i in range(10)) / 20_000
        assert head_share < 0.05

    def test_latest_favours_recent_records(self):
        chooser = LatestKeyChooser(1000, random.Random(1))
        counts = Counter(chooser.next_index() for _ in range(20_000))
        recent_share = sum(counts[i] for i in range(990, 1000)) / 20_000
        assert recent_share > 0.35

    def test_scrambled_zipfian_spreads_hot_keys(self):
        chooser = ScrambledZipfianKeyChooser(1000, random.Random(1))
        counts = Counter(chooser.next_index() for _ in range(20_000))
        # Still skewed overall, but the head is not concentrated on index 0..9.
        head_share = sum(counts[i] for i in range(10)) / 20_000
        assert head_share < 0.2
        assert counts.most_common(1)[0][1] / 20_000 > 0.05

    def test_determinism_given_seeded_rng(self):
        a = ZipfianKeyChooser(100, random.Random(7))
        b = ZipfianKeyChooser(100, random.Random(7))
        assert [a.next_index() for _ in range(20)] == \
            [b.next_index() for _ in range(20)]

    def test_latest_notify_insert_keeps_indices_valid(self):
        chooser = LatestKeyChooser(50, random.Random(2))
        for i in range(200):
            chooser.notify_insert(i % 50)
            assert 0 <= chooser.next_index() < 50


class _Doubles:
    """An rng whose ``random()`` hands out the given doubles in order."""

    def __init__(self, us):
        self._next = iter(us).__next__

    def random(self):
        return self._next()


class TestBulkDraws:
    """``indices_from_doubles`` — the path ``OperationGenerator.prefill``
    takes for a ``"doubles"`` chooser — against ``next_index`` fed the
    same doubles, draw for draw."""

    @pytest.mark.parametrize("chooser", [ZipfianKeyChooser,
                                         ScrambledZipfianKeyChooser])
    @pytest.mark.parametrize("record_count", [1, 2, 3, 1_000, 400_000])
    def test_indices_from_doubles_match_next_index(self, chooser,
                                                   record_count):
        rng = random.Random(record_count)
        us = [rng.random() for _ in range(2_000)]
        zipfian = ZipfianKeyChooser(record_count, rng)
        # Each branch's edges: the head, the second item, the tail.
        for edge in (1.0 / zipfian._zetan,
                     (1.0 + 0.5 ** zipfian.theta) / zipfian._zetan):
            us += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1.0)]
        us += [0.0, math.nextafter(1.0, 0.0)]
        per_draw = chooser(record_count, _Doubles(us))
        expected = [per_draw.next_index() for _ in us]
        bulk = chooser(record_count, random.Random(0))
        assert bulk.indices_from_doubles(us) == expected
        assert bulk.indices_from_doubles(iter(us)) == expected
        assert all(0 <= index < record_count for index in expected)
