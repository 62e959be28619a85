"""Tests for latency recording, bandwidth probes, divergence, and tables."""

import math
import random
import struct
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics.bandwidth import BandwidthProbe
from repro.metrics.divergence import DivergenceCounter
from repro.metrics.latency import _RUN, LatencyRecorder, nearest_rank_p99
from repro.metrics.summary import format_row, format_table
from repro.sim.environment import SimEnvironment
from repro.sim.node import Node
from repro.sim.topology import Region


class TestLatencyRecorder:
    def test_mean(self):
        recorder = LatencyRecorder()
        recorder.extend([10, 20, 30])
        assert recorder.mean() == 20
        assert recorder.count == 3

    def test_empty_summaries_are_zero(self):
        recorder = LatencyRecorder()
        assert recorder.mean() == 0
        assert recorder.p99() == 0
        assert recorder.minimum() == 0 and recorder.maximum() == 0

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-1)

    def test_percentiles(self):
        recorder = LatencyRecorder()
        recorder.extend(range(1, 101))
        assert recorder.p50() == pytest.approx(50.5)
        assert recorder.percentile(100) == 100
        assert recorder.p99() == pytest.approx(99.01)

    def test_percentile_bounds_validated(self):
        recorder = LatencyRecorder()
        recorder.record(1)
        with pytest.raises(ValueError):
            recorder.percentile(0)
        with pytest.raises(ValueError):
            recorder.percentile(101)

    def test_single_sample(self):
        recorder = LatencyRecorder()
        recorder.record(42)
        assert recorder.p50() == 42 and recorder.p99() == 42

    def test_merge(self):
        a, b = LatencyRecorder(), LatencyRecorder()
        a.extend([1, 2])
        b.extend([3, 4])
        a.merge(b)
        assert a.count == 4 and a.maximum() == 4

    def test_summary_keys(self):
        recorder = LatencyRecorder("reads")
        recorder.record(5)
        summary = recorder.summary()
        assert summary["name"] == "reads"
        assert summary["count"] == 1
        assert summary["mean_ms"] == 5

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                    min_size=1, max_size=200))
    def test_percentiles_bounded_by_min_max(self, samples):
        recorder = LatencyRecorder()
        recorder.extend(samples)
        for p in (1, 25, 50, 75, 99, 100):
            value = recorder.percentile(p)
            assert recorder.minimum() <= value <= recorder.maximum()
        assert recorder.p50() <= recorder.p99()


class TestLatencyRecorderBulk:
    def test_extend_rejects_any_negative_without_partial_append(self):
        recorder = LatencyRecorder()
        with pytest.raises(ValueError):
            recorder.extend([1.0, 2.0, -3.0])
        assert recorder.count == 0

    def test_extend_accepts_generator(self):
        recorder = LatencyRecorder()
        recorder.extend(float(i) for i in range(10))
        assert recorder.count == 10 and recorder.maximum() == 9.0

    def test_extend_empty(self):
        recorder = LatencyRecorder()
        recorder.extend([])
        assert recorder.count == 0


class TestLatencyRecorderRejectsNaN:
    """``nan < 0`` is False and ``min()`` skips a NaN that is not first, so
    a NaN used to get in; the sort then left the samples unordered."""

    def test_record_rejects_nan(self):
        recorder = LatencyRecorder()
        with pytest.raises(ValueError):
            recorder.record(float("nan"))
        assert recorder.count == 0

    @pytest.mark.parametrize("values", [[3.0, float("nan"), 1.0],
                                        [float("nan")], [1.0, float("nan")]])
    def test_extend_rejects_nan_without_partial_append(self, values):
        recorder = LatencyRecorder()
        with pytest.raises(ValueError):
            recorder.extend(values)
        assert recorder.count == 0

    def test_signed_zero_and_infinity_are_accepted(self):
        recorder = LatencyRecorder()
        recorder.record(-0.0)
        recorder.extend([0.0, math.inf])
        assert recorder.count == 3 and recorder.maximum() == math.inf


def _bits(value):
    return struct.pack("<d", value)


def _reference_percentile(ordered, p):
    """The list-based recorder's rule, over ``sorted()`` samples."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    low, high = int(math.floor(rank)), int(math.ceil(rank))
    if low == high:
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _reference_summary(name, values):
    ordered = sorted(values)
    return {"name": name, "count": len(values),
            "mean_ms": sum(values) / len(values) if values else 0.0,
            "p50_ms": _reference_percentile(ordered, 50),
            "p99_ms": _reference_percentile(ordered, 99),
            "min_ms": min(values) if values else 0.0,
            "max_ms": max(values) if values else 0.0}


class TestLatencyRecorderAgainstListReference:
    """The packed recorder and its run-merge sort against a plain
    ``sorted(list)`` reference, bit for bit, at sizes around the sort's
    run length."""

    SIZES = [0, 1, _RUN - 1, _RUN, _RUN + 1, 3 * _RUN + 7]

    def _check(self, recorder, values):
        for p in (1, 50, 99, 99.9, 100):
            assert _bits(recorder.percentile(p)) == _bits(
                _reference_percentile(sorted(values), p)), p
        expected = _reference_summary(recorder.name, values)
        summary = recorder.summary()
        assert summary.keys() == expected.keys()
        assert summary["name"] == expected["name"]
        assert summary["count"] == expected["count"]
        for key in ("mean_ms", "p50_ms", "p99_ms", "min_ms", "max_ms"):
            assert _bits(summary[key]) == _bits(expected[key]), key
        assert _bits(recorder.mean()) == _bits(expected["mean_ms"])
        assert _bits(recorder.minimum()) == _bits(expected["min_ms"])
        assert _bits(recorder.maximum()) == _bits(expected["max_ms"])
        samples = recorder.samples()
        assert type(samples) is list
        assert all(type(value) is float for value in samples)
        assert list(map(_bits, samples)) == list(map(_bits, values))

    @settings(max_examples=60, deadline=None)
    @given(size=st.sampled_from(SIZES),
           palette=st.lists(st.sampled_from([0.0, -0.0, 1.5, 1e6])
                            | st.floats(min_value=0, max_value=1e6,
                                        allow_nan=False),
                            min_size=1, max_size=6),
           signed_zeros=st.booleans(),
           cut=st.floats(min_value=0, max_value=1),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_sorted_list(self, size, palette, signed_zeros, cut,
                                 seed):
        # A small palette makes duplicates certain; with ``signed_zeros``
        # the low percentiles fall among zeros told apart only by order.
        if signed_zeros:
            palette = palette + [0.0, -0.0] * len(palette)
        rng = random.Random(seed)
        values = [rng.choice(palette) for _ in range(size)]
        recorder = LatencyRecorder("whole")
        recorder.extend(values[:size // 2])
        for value in values[size // 2:]:
            recorder.record(value)
        self._check(recorder, values)

        # Split at ``cut``, summarise the first part, then merge the rest.
        split = int(cut * size)
        merged, rest = LatencyRecorder("merged"), LatencyRecorder()
        merged.extend(values[:split])
        rest.extend(values[split:])
        self._check(merged, values[:split])
        merged.merge(rest)
        self._check(merged, values)

    def test_signed_zeros_keep_their_recorded_order(self):
        values = [0.0, -0.0] * (_RUN + 3) + [-0.0]
        recorder = LatencyRecorder()
        recorder.extend(values)
        self._check(recorder, values)

    def test_sort_holds_no_float_object_per_sample(self):
        # ``sorted()`` of every sample would hold a 24-byte float and an
        # 8-byte slot per sample; the run merge holds two packed copies.
        n = 20 * _RUN
        recorder = LatencyRecorder()
        recorder.extend(random.Random(1).random() for _ in range(n))
        tracemalloc.start()
        try:
            recorder.p50()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * n, f"{peak / n:.1f} bytes per sample"


class TestNearestRankP99:
    def test_empty_is_zero(self):
        assert nearest_rank_p99([]) == 0.0

    def test_is_a_sample_at_the_nearest_rank(self):
        assert nearest_rank_p99([float(i) for i in range(100, 0, -1)]) == 99.0
        assert nearest_rank_p99([float(i) for i in range(1, 201)]) == 198.0
        assert nearest_rank_p99([7.5]) == 7.5

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                    min_size=1, max_size=200))
    def test_at_least_99_percent_of_samples_at_or_below(self, samples):
        p99 = nearest_rank_p99(samples)
        assert p99 in samples
        assert sum(1 for x in samples if x <= p99) >= 0.99 * len(samples)


class TestDivergenceCounter:
    def test_record_matching(self):
        counter = DivergenceCounter()
        assert counter.record("a", "a") is False
        assert counter.divergence_rate() == 0

    def test_record_diverging(self):
        counter = DivergenceCounter()
        assert counter.record("a", "b") is True
        counter.record("x", "x")
        assert counter.divergence_rate() == pytest.approx(0.5)
        assert counter.divergence_percent() == pytest.approx(50.0)

    def test_missing_preliminary_not_counted(self):
        counter = DivergenceCounter()
        counter.record(None, "x", had_preliminary=False)
        assert counter.total == 0
        assert counter.missing_preliminary == 1

    def test_record_outcome(self):
        counter = DivergenceCounter()
        counter.record_outcome(True)
        counter.record_outcome(False)
        counter.record_outcome(False, had_preliminary=False)
        assert counter.diverged == 1 and counter.matched == 1
        assert counter.missing_preliminary == 1

    def test_merge(self):
        a, b = DivergenceCounter(), DivergenceCounter()
        a.record_outcome(True)
        b.record_outcome(False)
        a.merge(b)
        assert a.total == 2

    def test_empty_rate_is_zero(self):
        assert DivergenceCounter().divergence_rate() == 0.0


class _Sink(Node):
    def handle_message(self, message):
        pass


class TestBandwidthProbe:
    def _env_with_nodes(self):
        env = SimEnvironment(seed=1)
        a = _Sink("client", Region.IRL, env.network)
        b = _Sink("server", Region.FRK, env.network)
        c = _Sink("other", Region.VRG, env.network)
        return env, a, b, c

    def test_window_scoping(self):
        env, a, b, _ = self._env_with_nodes()
        env.network.send("client", "server", "x", size_bytes=100)
        probe = BandwidthProbe(env.network, ["client"], ["server"])
        probe.start()
        env.network.send("client", "server", "x", size_bytes=40)
        env.network.send("server", "client", "x", size_bytes=60)
        probe.stop()
        env.network.send("client", "server", "x", size_bytes=500)
        assert probe.bytes_transferred() == 100

    def test_only_selected_links_counted(self):
        env, a, b, c = self._env_with_nodes()
        probe = BandwidthProbe(env.network, ["client"], ["server"])
        probe.start()
        env.network.send("client", "other", "x", size_bytes=999)
        env.network.send("client", "server", "x", size_bytes=10)
        assert probe.bytes_transferred() == 10

    def test_kilobytes_per_op(self):
        env, a, b, _ = self._env_with_nodes()
        probe = BandwidthProbe(env.network, ["client"], ["server"])
        probe.start()
        env.network.send("client", "server", "x", size_bytes=3000)
        assert probe.kilobytes_per_op(3) == pytest.approx(1.0)
        assert probe.kilobytes_per_op(0) == 0.0

    def test_unstarted_probe_raises(self):
        env, *_ = self._env_with_nodes()
        probe = BandwidthProbe(env.network, ["client"], ["server"])
        with pytest.raises(RuntimeError):
            probe.stop()
        with pytest.raises(RuntimeError):
            probe.bytes_transferred()


class TestTableFormatting:
    def test_format_table_aligns_columns(self):
        table = format_table(["name", "value"],
                             [["a", 1], ["longer-name", 2.5]],
                             title="Title")
        lines = table.splitlines()
        assert lines[0] == "Title"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_float_formatting(self):
        row = format_row([1.23456, "x"], [8, 3])
        assert "1.23" in row

    def test_empty_rows(self):
        table = format_table(["a"], [])
        assert "a" in table
