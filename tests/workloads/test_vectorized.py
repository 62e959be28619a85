"""Chunked vs per-draw equality for the generators built on bulk draws.

The determinism seam (:mod:`repro.workloads.fastrand`) promises that chunked
generation reproduces the historical per-draw ``random.Random`` sequences
bit for bit — same operations, same keys, same values, same gaps, and the
same generator state afterwards.  These tests pin that contract on every
consumer of the seam; ``test_fastrand.py`` pins the functions themselves.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.workloads import records
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.records import Dataset, make_value
from repro.workloads.ycsb import OperationGenerator, workload_by_name


def _per_draw_generator(spec, dataset, rng) -> OperationGenerator:
    """A generator pinned to the historical per-draw path.

    ``_chunked = False`` is the generator's own "per-draw only" sentinel
    (the state it reaches when a chooser cannot be precomputed), so the
    reference consumes the rng exactly as the pre-seam code did.
    """
    generator = OperationGenerator(spec, dataset, rng)
    generator._chunked = False
    return generator


class TestOperationStreamEquality:
    @pytest.mark.parametrize("workload", ["A", "B"])
    def test_prefill_matches_per_draw(self, workload):
        # A shared rng interleaves key and mix draws, so only one-double
        # choosers (zipfian) can vectorize; uniform is covered through the
        # independent-stream path below.
        spec = workload_by_name(workload).with_distribution("zipfian")
        # Separate datasets: the shared value stream must advance in the
        # same global order on both sides.
        vec = OperationGenerator(spec, Dataset(400, seed=3),
                                 random.Random(9))
        ref = _per_draw_generator(spec, Dataset(400, seed=3),
                                  random.Random(9))
        assert vec.prefill(300) >= 300
        ops_vec = [vec.next_operation() for _ in range(300)]
        ops_ref = [ref.next_operation() for _ in range(300)]
        assert ops_vec == ops_ref
        assert (vec.reads_generated, vec.updates_generated) == \
            (ref.reads_generated, ref.updates_generated)
        # The rng has consumed exactly the same Mersenne Twister words as
        # the per-draw path.
        assert vec._rng.getstate() == ref._rng.getstate()

    @pytest.mark.parametrize("distribution", ["zipfian", "uniform"])
    def test_seeded_generators_with_independent_streams_match(
            self, distribution):
        spec = workload_by_name("A").with_distribution(distribution)
        vec = OperationGenerator.seeded(spec, Dataset(250, seed=1), 42,
                                        "vec-test")
        ref = OperationGenerator.seeded(spec, Dataset(250, seed=1), 42,
                                        "vec-test")
        ref._chunked = False
        assert vec.prefill(200) >= 200
        assert [vec.next_operation() for _ in range(200)] == \
            [ref.next_operation() for _ in range(200)]
        assert vec._key_rng.getstate() == ref._key_rng.getstate()
        assert vec._rng.getstate() == ref._rng.getstate()

    def test_auto_chunk_engagement_is_seamless(self):
        """Crossing the auto-chunk threshold must not perturb the stream."""
        spec = workload_by_name("A")
        vec = OperationGenerator(spec, Dataset(300, seed=2),
                                 random.Random(5))
        ref = _per_draw_generator(spec, Dataset(300, seed=2),
                                  random.Random(5))
        n = 500  # crosses _AUTO_CHUNK_AFTER mid-sequence
        assert [vec.next_operation() for _ in range(n)] == \
            [ref.next_operation() for _ in range(n)]

    def test_latest_distribution_stays_per_draw(self):
        """A stateful chooser cannot vectorize; prefill reports 0 draws."""
        spec = workload_by_name("A").with_distribution("latest")
        generator = OperationGenerator(spec, Dataset(100, seed=4),
                                       random.Random(6))
        assert generator.prefill(64) == 0
        op_type, key, _ = generator.next_operation()
        assert op_type in ("read", "update") and key


class TestArrivalAndValueStreams:
    def test_poisson_auto_chunk_matches_expovariate(self):
        arrivals = PoissonArrivals(150.0, random.Random(8))
        reference = random.Random(8)
        gaps = [arrivals.next_gap_ms() for _ in range(500)]
        assert gaps == [reference.expovariate(0.15) for _ in range(500)]

    def test_dataset_value_stream_matches_make_value(self):
        dataset = Dataset(10, value_size_bytes=24, seed=6)
        reference = random.Random(6)
        values = [dataset.random_value() for _ in range(40)]
        assert values == [make_value(reference, 24) for _ in range(40)]

    def test_make_value_matches_per_draw_choice(self):
        rng, reference = random.Random(9), random.Random(9)
        for size in (1, 24, 100, 7):
            assert make_value(rng, size) == "".join(
                [reference.choice(records._PRINTABLE) for _ in range(size)])
        assert rng.getstate() == reference.getstate()


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestDrawOracle:
    """Bulk draws against per-draw ``random.Random`` calls and against
    digests recorded from them: a chunking or table bug changes a value
    here before it changes a figure."""

    @pytest.mark.parametrize("size", [100, 24])
    def test_initial_values_match_the_key_oracle(self, size):
        """A time-zero value is its key's SHAKE-128 digest, byte ``b``
        written as printable character ``b % 62``."""
        count = 2_000
        printable = records._PRINTABLE
        dataset = Dataset(count, value_size_bytes=size)
        assert [dataset.initial_value(i) for i in range(count)] == [
            "".join([printable[byte % len(printable)] for byte in
                     hashlib.shake_128(f"user{i}".encode()).digest(size)])
            for i in range(count)]

    def test_initial_items_digest(self):
        # The record count ``ring-join-400k --quick`` preloads.
        items = Dataset(100_000).initial_items()
        assert _sha256(f"{key} {value}" for key, value in items.items()) == \
            "14b12dffaccc42b15f21eee654fe622940c997e9b7da6e52e8b6a16b2c7b4ded"

    def test_random_value_digest(self):
        dataset = Dataset(1_000, seed=11)
        assert _sha256(dataset.random_value() for _ in range(1_000)) == \
            "73e49bcf817d26ad473fa61b9f2d0f1b711c49d1add134d14af753d061e06e8e"

    @pytest.mark.parametrize("shared, digest", [
        (True,
         "c7b0824121c4441e6c6d29c335f24c3df33d3ee24129046efb49c118528e243c"),
        (False,
         "81dfb4d1591c0fc66dd0e16b3b35f5d6087741aab8cfb661ba466dcc1c712aff"),
    ], ids=["shared-zipfian", "seeded-uniform"])
    def test_prefilled_ops_digest(self, shared, digest):
        """Packed ops of one ``prefill(4096)``: doubles only (one shared
        rng), and bounded words for the keys plus doubles for the mix."""
        if shared:
            generator = OperationGenerator(workload_by_name("A"),
                                           Dataset(1_000), random.Random(5))
        else:
            generator = OperationGenerator.seeded(
                workload_by_name("B").with_distribution("uniform"),
                Dataset(1_000), 5, "oracle")
        assert generator.prefill(4096) == 4096
        assert _sha256(map(str, generator._buf)) == digest


class TestTimeZeroItems:
    """A dataset's key -> value mapping, as ``initial_items()`` hands it
    to a preload."""

    def test_values_are_the_dataset_initial_values(self):
        dataset = Dataset(50, value_size_bytes=9)
        items = dataset.initial_items()
        assert list(items.values()) == [dataset.initial_value(i)
                                        for i in range(50)]
        assert list(items.items()) == [(dataset.key(i),
                                        dataset.initial_value(i))
                                       for i in range(50)]
        assert items["user17"] == dataset.initial_value(17)
        assert ("user3", dataset.initial_value(3)) in items.items()
        assert ("user3", dataset.initial_value(4)) not in items.items()

    @pytest.mark.parametrize("key", ["user007", "user-1", "user+1", "user 1",
                                     "user٣", "user50", "user", "item3", 7])
    def test_a_key_no_record_is_spelt_is_missing(self, key):
        """Only ``prefix + str(index)`` of a record names it: a sign, a
        space, a leading zero or an index past the last record does not."""
        items = Dataset(50, value_size_bytes=9).initial_items()
        assert key not in items
        with pytest.raises(KeyError):
            items[key]

    def test_a_dataset_past_the_key_cache_cap_formats_keys_on_demand(self):
        dataset = Dataset(records._KEY_CACHE_MAX + 1)
        assert dataset.cached_keys() is None
        assert dataset.key(records._KEY_CACHE_MAX) == \
            f"user{records._KEY_CACHE_MAX}"
