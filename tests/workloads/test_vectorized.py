"""Array-backend vs per-draw equality for the vectorized generators.

The determinism seam (:mod:`repro.workloads.fastrand`) promises that chunked
generation reproduces the historical per-draw ``random.Random`` sequences
bit for bit — same operations, same keys, same values, same gaps, and the
same generator state afterwards.  These tests pin that contract on every
consumer of the seam.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

from repro.workloads import fastrand, records
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.records import Dataset, make_value
from repro.workloads.ycsb import OperationGenerator, workload_by_name


def _per_draw_generator(spec, dataset, rng) -> OperationGenerator:
    """A generator pinned to the historical per-draw path.

    ``_streams = False`` is the generator's own "per-draw only" sentinel
    (the state it reaches when a chooser cannot be vectorized), so the
    reference consumes the rng exactly as the pre-seam code did.
    """
    generator = OperationGenerator(spec, dataset, rng)
    generator._streams = False
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
        # After syncing the stream back, the source rng has consumed
        # exactly the same Mersenne Twister words as the per-draw path.
        vec.sync_streams()
        assert vec._rng.getstate() == ref._rng.getstate()

    @pytest.mark.parametrize("distribution", ["zipfian", "uniform"])
    def test_seeded_generators_with_independent_streams_match(
            self, distribution):
        spec = workload_by_name("A").with_distribution(distribution)
        vec = OperationGenerator.seeded(spec, Dataset(250, seed=1), 42,
                                        "vec-test")
        ref = OperationGenerator.seeded(spec, Dataset(250, seed=1), 42,
                                        "vec-test")
        ref._streams = False
        assert vec.prefill(200) >= 200
        assert [vec.next_operation() for _ in range(200)] == \
            [ref.next_operation() for _ in range(200)]

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
    def test_poisson_prefill_matches_expovariate(self):
        arrivals = PoissonArrivals(200.0, random.Random(5))
        reference = random.Random(5)
        arrivals.prefill(400)
        gaps = [arrivals.next_gap_ms() for _ in range(400)]
        assert gaps == [reference.expovariate(0.2) for _ in range(400)]

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


class TestBackends:
    def test_pure_stream_reproduces_random(self):
        stream = fastrand.make_stream(random.Random(17), backend="array")
        reference = random.Random(17)
        assert list(stream.doubles(257)) == \
            [reference.random() for _ in range(257)]

    @pytest.mark.skipif(not fastrand.HAVE_NUMPY,
                        reason="numpy backend unavailable")
    def test_array_and_numpy_backends_produce_identical_streams(self):
        pure = fastrand.make_stream(random.Random(17), backend="array")
        mirror = fastrand.make_stream(random.Random(17), backend="numpy")
        assert [float(v) for v in mirror.doubles(257)] == \
            list(pure.doubles(257))
        pure2 = fastrand.make_stream(random.Random(23), backend="array")
        mirror2 = fastrand.make_stream(random.Random(23), backend="numpy")
        assert list(fastrand.exponential_gaps(mirror2, 100, 0.25)) == \
            list(fastrand.exponential_gaps(pure2, 100, 0.25))

    @pytest.mark.skipif(not fastrand.HAVE_NUMPY,
                        reason="numpy backend unavailable")
    def test_backend_sync_restores_identical_rng_state(self):
        rng_pure, rng_mirror = random.Random(31), random.Random(31)
        pure = fastrand.make_stream(rng_pure, backend="array")
        mirror = fastrand.make_stream(rng_mirror, backend="numpy")
        pure.doubles(100)
        mirror.doubles(100)
        pure.sync()
        mirror.sync()
        assert rng_pure.getstate() == rng_mirror.getstate()


class TestInitialValueChunking:
    @pytest.mark.parametrize("chunk", [256, 300, 1 << 16])
    def test_initial_values_do_not_depend_on_the_chunk_size(
            self, chunk, monkeypatch):
        """The chunk only bounds the draw's temporaries: stream consumption
        is exact across refills, so any chunking yields the same strings."""
        count = 3 * records._INITIAL_CHUNK + 17
        reference = Dataset(count, value_size_bytes=10)
        reference._fill_initial_values(count)
        monkeypatch.setattr(records, "_INITIAL_CHUNK", chunk)
        rechunked = Dataset(count, value_size_bytes=10)
        rechunked._fill_initial_values(count)
        # (a fill may run past ``count`` to the end of its last chunk)
        assert rechunked._initial_values[:count] == \
            reference._initial_values[:count]
        # ... and filling on demand, index by index, agrees too.
        lazy = Dataset(count, value_size_bytes=10)
        for index in (0, 255, 256, 4_095, 4_096, count - 1):
            assert lazy.initial_value(index) == \
                reference._initial_values[index]


class TestNumpyIsImportedOnDemand:
    @staticmethod
    def _run(script: str) -> str:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout.strip()

    def test_zookeeper_stack_never_imports_numpy(self):
        assert self._run(
            "import sys\n"
            "import repro.apps.tickets, repro.zookeeper_sim\n"
            "from repro.workloads import fastrand\n"
            "print('numpy' in sys.modules, fastrand.BACKEND)"
        ) == f"False {fastrand.BACKEND}"

    @pytest.mark.skipif(not fastrand.HAVE_NUMPY,
                        reason="numpy backend unavailable")
    def test_cassandra_build_pays_the_import_during_setup(self):
        """Every Cassandra workload preloads a dataset (a MirrorStream)
        before its first operation, so the import lands in set-up."""
        assert self._run(
            "import sys\n"
            "from repro.core.cluster_spec import ClusterSpec\n"
            "before = 'numpy' in sys.modules\n"
            "built = ClusterSpec(record_count=50).build()\n"
            "print(before, 'numpy' in sys.modules, "
            "built.env.scheduler.events_executed)"
        ) == "False True 0"
