"""Sweep-engine tests: determinism across job counts, crash isolation,
order-independent seed derivation, and the figure families' point grids."""

import pytest

from repro.bench.sweep import (
    SweepFailure,
    SweepPoint,
    derive_point_rng,
    make_points,
    point_seed,
    resolve_jobs,
    run_sweep,
)


def _square_point(point: SweepPoint) -> dict:
    return {"index": point.index, "value": point.kwargs["n"] ** 2}


def _crashy_point(point: SweepPoint) -> dict:
    if point.kwargs["n"] == 2:
        raise RuntimeError("simulated point crash")
    return {"value": point.kwargs["n"]}


def _points(count: int):
    return make_points("test", (({"n": n}, {"n": n}) for n in range(count)))


class TestResolveJobs:
    def test_defaults_to_serial(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs("1") == 1

    def test_accepts_integers_and_strings(self):
        assert resolve_jobs(4) == 4
        assert resolve_jobs("8") == 8

    def test_auto_uses_available_cores(self):
        assert resolve_jobs("auto") >= 1

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            resolve_jobs("fast")
        with pytest.raises(ValueError):
            resolve_jobs(0)
        with pytest.raises(ValueError):
            resolve_jobs(-2)


class TestMakePoints:
    def test_indices_follow_grid_order(self):
        points = _points(4)
        assert [p.index for p in points] == [0, 1, 2, 3]
        assert all(p.family == "test" for p in points)

    def test_label_lookup(self):
        point = _points(3)[2]
        assert point.label("n") == 2
        assert point.label("missing", "fallback") == "fallback"

    def test_spec_names_family_index_and_labels(self):
        assert _points(2)[1].spec() == "test[1](n=1)"


class TestRunSweep:
    def test_serial_executes_in_grid_order(self):
        result = run_sweep(_points(5), _square_point, jobs=1)
        assert result.jobs == 1
        assert [r["value"] for r in result.records()] == [0, 1, 4, 9, 16]

    def test_parallel_matches_serial(self):
        serial = run_sweep(_points(6), _square_point, jobs=1)
        parallel = run_sweep(_points(6), _square_point, jobs=3)
        assert parallel.jobs == 3
        assert parallel.records() == serial.records()

    def test_per_point_wall_timings_recorded(self):
        result = run_sweep(_points(3), _square_point, jobs=1)
        timings = result.point_timings()
        assert len(timings) == 3
        assert all(wall >= 0.0 for _, wall in timings)

    def test_single_point_runs_inline_even_with_jobs(self):
        result = run_sweep(_points(1), _square_point, jobs=4)
        assert result.jobs == 1
        assert result.records() == [{"index": 0, "value": 0}]


class TestCrashIsolation:
    def test_failed_point_does_not_kill_the_sweep(self):
        result = run_sweep(_points(5), _crashy_point, jobs=1)
        assert len(result.outcomes) == 5
        assert len(result.failed()) == 1
        assert result.failed()[0].point.kwargs["n"] == 2
        assert "simulated point crash" in result.failed()[0].error

    def test_records_raises_with_failed_specs(self):
        result = run_sweep(_points(5), _crashy_point, jobs=1)
        with pytest.raises(SweepFailure) as excinfo:
            result.records()
        assert "test[2](n=2)" in str(excinfo.value)
        assert "1/5" in str(excinfo.value)

    def test_parallel_crash_isolation(self):
        result = run_sweep(_points(5), _crashy_point, jobs=2)
        assert len(result.failed()) == 1
        survivors = [o.record["value"] for o in result.outcomes if o.ok]
        assert survivors == [0, 1, 3, 4]


class TestSeedDerivation:
    def test_point_seed_is_order_independent(self):
        grid = [("C1", 2), ("C2", 2), ("C1", 6), ("C2", 6)]
        forward = make_points("fig", (
            ({"system": s, "threads": t}, {}) for s, t in grid))
        shuffled = make_points("fig", (
            ({"system": s, "threads": t}, {}) for s, t in reversed(grid)))
        seeds_fwd = {p.labels: point_seed(42, p) for p in forward}
        seeds_rev = {p.labels: point_seed(42, p) for p in shuffled}
        assert seeds_fwd == seeds_rev

    def test_point_seed_ignores_label_insertion_order(self):
        a = SweepPoint(index=0, family="f",
                       labels=(("system", "C1"), ("threads", 2)))
        b = SweepPoint(index=7, family="f",
                       labels=(("threads", 2), ("system", "C1")))
        assert point_seed(42, a) == point_seed(42, b)

    def test_distinct_cells_get_distinct_seeds(self):
        points = make_points("fig", (
            ({"system": s}, {}) for s in ("C1", "C2", "CC2")))
        seeds = {point_seed(42, p) for p in points}
        assert len(seeds) == 3

    def test_derive_point_rng_reproducible(self):
        point = SweepPoint(index=0, family="f", labels=(("x", 1),))
        assert derive_point_rng(42, point).random() == \
            derive_point_rng(42, point).random()


class TestFigureSweepsParallelEqualsSerial:
    """The acceptance gate: --jobs 2 output byte-identical to --jobs 1."""

    @staticmethod
    def _same(figure, jobs=2, **overrides):
        assert figure.run(jobs=1, **overrides) == \
            figure.run(jobs=jobs, **overrides)

    def test_fig06_slice(self):
        from repro.bench.figures import FIG06

        self._same(FIG06, workloads=("A",), systems=("C1", "CC2"),
                   thread_counts=(2,), duration_ms=2_500.0,
                   warmup_ms=500.0, cooldown_ms=250.0, record_count=60,
                   seed=11)

    def test_fig09_slice(self):
        from repro.bench.figures import FIG09

        self._same(FIG09, samples=15, seed=7)

    @pytest.mark.slow
    def test_fig10_and_fig12_slices(self):
        from repro.bench.figures import FIG10, FIG12

        self._same(FIG10, stocks=(40,), client_counts=(1, 2), seed=7)
        self._same(FIG12, stock=60, threshold=10, seed=7)

    @pytest.mark.slow
    def test_fig08_overhead_merge_matches_serial(self):
        from repro.bench.figures import FIG08

        self._same(FIG08, configs=(("A", "latest"),), threads=4,
                   duration_ms=2_500.0, warmup_ms=500.0, cooldown_ms=250.0,
                   record_count=200, seed=11)

    @pytest.mark.slow
    def test_fig05_and_fig07_slices(self):
        from repro.bench.figures import FIG05, FIG07

        self._same(FIG05, samples=20, record_count=30, seed=7)
        self._same(FIG07, configs=(("A", "latest"), ("B", "latest")),
                   thread_counts=(4,), duration_ms=2_500.0, warmup_ms=500.0,
                   cooldown_ms=250.0, record_count=200, seed=11)

    @pytest.mark.slow
    def test_fig11_slice(self):
        from repro.bench.figures import FIG11

        self._same(FIG11, apps=("ads",), systems=("C2", "CC2"),
                   workloads=("B",), thread_counts=(1,), duration_ms=2_500.0,
                   warmup_ms=500.0, cooldown_ms=250.0, profile_count=40,
                   ref_count=80, seed=11)

    @pytest.mark.slow
    def test_fig13_slice_including_zookeeper(self):
        from repro.bench.figures import FIG13

        self._same(FIG13, jobs=3, scenarios=("baseline", "replica-crash"),
                   threads_per_client=1, duration_ms=3_000.0,
                   warmup_ms=500.0, cooldown_ms=250.0, record_count=60,
                   seed=11,
                   zk=dict(duration_ms=6_000.0, crash_at_ms=1_500.0,
                           crash_duration_ms=2_500.0, threads_per_client=1,
                           warmup_ms=2_000.0, cooldown_ms=1_000.0,
                           queue_depth=400))

    @pytest.mark.slow
    def test_ablation_slices(self):
        from repro.bench.figures import CONFIRMATION, TICKET_THRESHOLD, \
            VIEW_COUNT

        self._same(TICKET_THRESHOLD, thresholds=(0, 10), stock=60, seed=7)
        self._same(VIEW_COUNT)
        self._same(CONFIRMATION, threads=4, duration_ms=2_500.0, seed=7)
