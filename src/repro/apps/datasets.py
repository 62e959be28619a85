"""Synthetic datasets shaped like the ones the paper evaluated on.

The paper uses a 100 k-profile / 230 k-ad dataset for the advertising system
and a 65 k-tweet / 22 k-timeline corpus for Twissandra.  Real corpora are not
redistributable, so we generate deterministic synthetic data with the same
referential structure: profiles reference 1–40 ads; timelines reference a
bounded number of tweets, newest first.  Sizes are scaled down by default so
experiments stay laptop-fast; pass larger counts for paper-scale runs.
"""

from __future__ import annotations

import random
from dataclasses import field
from typing import Dict, List

from repro.workloads.records import POSITIVE, check_fields, make_value, spec


@spec
class AdsDataset:
    """User profiles referencing personalized ads."""

    profile_count: int = field(default=2_000, metadata=POSITIVE)
    ad_count: int = field(default=4_600, metadata=POSITIVE)
    min_ads_per_profile: int = 1
    max_ads_per_profile: int = 40
    ad_body_bytes: int = field(default=200, metadata=POSITIVE)
    seed: int = 7
    _profiles: Dict[str, List[str]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.min_ads_per_profile > self.max_ads_per_profile:
            raise ValueError(
                f"min_ads_per_profile ({self.min_ads_per_profile}) must not "
                f"exceed max_ads_per_profile ({self.max_ads_per_profile})")
        rng = random.Random(self.seed)
        for index in range(self.profile_count):
            count = rng.randint(self.min_ads_per_profile,
                                self.max_ads_per_profile)
            refs = [self.ad_key(rng.randrange(self.ad_count))
                    for _ in range(count)]
            self._profiles[self.profile_key(index)] = refs

    # -- keys --------------------------------------------------------------
    @staticmethod
    def profile_key(index: int) -> str:
        return f"profile:{index}"

    @staticmethod
    def ad_key(index: int) -> str:
        return f"ad:{index}"

    def profile_keys(self) -> List[str]:
        return list(self._profiles.keys())

    def ad_refs(self, profile_key: str) -> List[str]:
        return list(self._profiles[profile_key])

    def ad_body(self, ad_key: str) -> str:
        index = int(ad_key.split(":", 1)[1])
        rng = random.Random((index + 1) * 40503)
        return make_value(rng, self.ad_body_bytes)

    def random_refs(self, rng: random.Random) -> List[str]:
        """A fresh reference list, used when a profile's interests change."""
        count = rng.randint(self.min_ads_per_profile, self.max_ads_per_profile)
        return [self.ad_key(rng.randrange(self.ad_count)) for _ in range(count)]

    def initial_items(self) -> Dict[str, object]:
        """Key → value mapping for preloading a cluster."""
        items: Dict[str, object] = {}
        for profile_key, refs in self._profiles.items():
            items[profile_key] = list(refs)
        for ad_index in range(self.ad_count):
            key = self.ad_key(ad_index)
            items[key] = self.ad_body(key)
        return items


@spec
class TwissandraDataset:
    """User timelines referencing tweets (newest first)."""

    user_count: int = field(default=1_100, metadata=POSITIVE)
    tweet_count: int = field(default=3_250, metadata=POSITIVE)
    timeline_length: int = field(default=20, metadata=POSITIVE)
    tweet_body_bytes: int = field(default=140, metadata=POSITIVE)
    seed: int = 11
    _timelines: Dict[str, List[str]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        check_fields(self)
        rng = random.Random(self.seed)
        for index in range(self.user_count):
            length = rng.randint(1, self.timeline_length)
            tweets = [self.tweet_key(rng.randrange(self.tweet_count))
                      for _ in range(length)]
            self._timelines[self.timeline_key(index)] = tweets

    # -- keys -----------------------------------------------------------------
    @staticmethod
    def timeline_key(index: int) -> str:
        return f"timeline:{index}"

    @staticmethod
    def tweet_key(index: int) -> str:
        return f"tweet:{index}"

    def timeline_keys(self) -> List[str]:
        return list(self._timelines.keys())

    def timeline(self, timeline_key: str) -> List[str]:
        return list(self._timelines[timeline_key])

    def tweet_body(self, tweet_key: str) -> str:
        index = int(tweet_key.split(":", 1)[1])
        rng = random.Random((index + 1) * 69069)
        return make_value(rng, self.tweet_body_bytes)

    def initial_items(self) -> Dict[str, object]:
        """Key → value mapping for preloading a cluster."""
        items: Dict[str, object] = {}
        for timeline_key, tweets in self._timelines.items():
            items[timeline_key] = list(tweets)
        for tweet_index in range(self.tweet_count):
            key = self.tweet_key(tweet_index)
            items[key] = self.tweet_body(key)
        return items
