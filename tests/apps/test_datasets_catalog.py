"""Tests for the synthetic app datasets and the Table 1 catalog."""

import random

import pytest

from repro.apps.catalog import (
    APPLICATION_CATALOG,
    ConsistencyCategory,
    recommend_category,
    use_cases,
)
from repro.apps.datasets import AdsDataset, TwissandraDataset


class TestAdsDataset:
    def test_reference_counts_within_bounds(self):
        dataset = AdsDataset(profile_count=200, ad_count=500)
        for profile_key in dataset.profile_keys():
            refs = dataset.ad_refs(profile_key)
            assert 1 <= len(refs) <= 40
            for ref in refs:
                assert ref.startswith("ad:")
                assert 0 <= int(ref.split(":")[1]) < 500

    def test_deterministic_for_same_seed(self):
        a = AdsDataset(profile_count=50, ad_count=100, seed=3)
        b = AdsDataset(profile_count=50, ad_count=100, seed=3)
        assert a.initial_items() == b.initial_items()

    def test_different_seed_differs(self):
        a = AdsDataset(profile_count=50, ad_count=100, seed=3)
        b = AdsDataset(profile_count=50, ad_count=100, seed=4)
        assert a.initial_items() != b.initial_items()

    def test_initial_items_cover_profiles_and_ads(self):
        dataset = AdsDataset(profile_count=10, ad_count=20)
        items = dataset.initial_items()
        assert len(items) == 30
        assert len(dataset.ad_body("ad:0")) == dataset.ad_body_bytes

    def test_a_minimum_above_the_maximum_is_refused_by_both_names(self):
        with pytest.raises(ValueError, match=r"min_ads_per_profile \(5\) must "
                           r"not exceed max_ads_per_profile \(2\)"):
            AdsDataset(profile_count=10, ad_count=20, min_ads_per_profile=5,
                       max_ads_per_profile=2)
        # Equal bounds are a fixed reference count.
        dataset = AdsDataset(profile_count=10, ad_count=20,
                             min_ads_per_profile=3, max_ads_per_profile=3)
        assert {len(dataset.ad_refs(key))
                for key in dataset.profile_keys()} == {3}

    def test_random_refs_respect_bounds(self):
        dataset = AdsDataset(profile_count=10, ad_count=20)
        rng = random.Random(0)
        for _ in range(20):
            refs = dataset.random_refs(rng)
            assert 1 <= len(refs) <= 40



class TestTwissandraDataset:
    def test_timelines_reference_valid_tweets(self):
        dataset = TwissandraDataset(user_count=100, tweet_count=300)
        for key in dataset.timeline_keys():
            timeline = dataset.timeline(key)
            assert 1 <= len(timeline) <= dataset.timeline_length
            for tweet in timeline:
                assert 0 <= int(tweet.split(":")[1]) < 300

    def test_tweet_bodies_fixed_size(self):
        dataset = TwissandraDataset(user_count=5, tweet_count=10)
        assert len(dataset.tweet_body("tweet:3")) == dataset.tweet_body_bytes

    def test_initial_items_count(self):
        dataset = TwissandraDataset(user_count=5, tweet_count=10)
        assert len(dataset.initial_items()) == 15


class TestCatalog:
    def test_all_three_categories_present(self):
        categories = {case.category for case in APPLICATION_CATALOG}
        assert categories == set(ConsistencyCategory)

    def test_use_cases_filter(self):
        icg_cases = use_cases(ConsistencyCategory.ICG)
        assert all(case.category is ConsistencyCategory.ICG
                   for case in icg_cases)
        assert any("advertising" == case.name for case in icg_cases)

    def test_recommendation_weak(self):
        category, _ = recommend_category(requires_correct_results=False,
                                         benefits_from_fast_weak_views=True)
        assert category is ConsistencyCategory.WEAK

    def test_recommendation_strong(self):
        category, _ = recommend_category(requires_correct_results=True,
                                         benefits_from_fast_weak_views=False)
        assert category is ConsistencyCategory.STRONG

    def test_recommendation_icg(self):
        category, reason = recommend_category(requires_correct_results=True,
                                              benefits_from_fast_weak_views=True)
        assert category is ConsistencyCategory.ICG
        assert reason
