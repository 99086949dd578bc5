"""Tests for counters, gauges, and deterministic histograms."""

import numpy as np
import pytest

from repro.obs.metrics_runtime import (
    DEFAULT_EDGES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_spaced_edges,
)


class TestEdges:
    def test_default_edges_span_nanoseconds_to_gigaseconds(self):
        assert DEFAULT_EDGES[0] == pytest.approx(1e-9)
        assert DEFAULT_EDGES[-1] == pytest.approx(1e9)
        assert list(DEFAULT_EDGES) == sorted(DEFAULT_EDGES)

    def test_edges_are_process_independent_floats(self):
        # Integer-exponent construction: recomputing yields identical
        # floats, the property the byte-stable snapshots rest on.
        assert log_spaced_edges() == DEFAULT_EDGES

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            log_spaced_edges(5, 5)
        with pytest.raises(ValueError):
            log_spaced_edges(0, 4, per_decade=0)


class TestCounter:
    def test_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6
        assert counter.snapshot() == {"kind": "counter", "value": 6}

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("c").inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        gauge = Gauge("g")
        gauge.set(3.5)
        gauge.set(1.25)
        assert gauge.value == 1.25
        assert gauge.snapshot()["value"] == 1.25


class TestHistogram:
    def test_bucketing_boundaries(self):
        histogram = Histogram("h", edges=(1.0, 10.0, 100.0))
        for value in (0.5, 1.0, 5.0, 100.0, 1000.0):
            histogram.record(value)
        snapshot, = histogram.snapshot()["series"]
        assert snapshot["buckets"] == [["1.0", 2], ["10.0", 1],
                                       ["100.0", 1], ["+Inf", 1]]
        assert snapshot["count"] == 5
        assert snapshot["min"] == 0.5
        assert snapshot["max"] == 1000.0

    def test_record_many_matches_scalar_loop(self):
        values = np.random.default_rng(7).gamma(2.0, 3.0, 500)
        one = Histogram("a")
        many = Histogram("b")
        for value in values:
            one.record(value)
        many.record_many(values)
        assert one.snapshot()["series"] == many.snapshot()["series"]
        assert one.count == many.count == 500
        assert one.sum == pytest.approx(many.sum)

    def test_identical_streams_are_byte_identical(self):
        # The determinism contract: same observations, same bytes.
        def build() -> str:
            registry = MetricsRegistry()
            registry.counter("featurize.queries_total").inc(300)
            histogram = registry.histogram("estimator.qerror")
            histogram.record_many(
                1.0 + np.random.default_rng(3).gamma(2.0, 5.0, 1_000))
            registry.gauge("depth").set(4)
            return registry.to_json()

        assert build() == build()

    def test_empty_histogram_snapshot(self):
        snapshot, = Histogram("h").snapshot()["series"]
        assert snapshot["count"] == 0
        assert snapshot["buckets"] == []
        assert snapshot["min"] is None and snapshot["max"] is None

    def test_mean(self):
        histogram = Histogram("h")
        histogram.record_many([1.0, 3.0])
        assert histogram.mean == 2.0

    def test_rejects_unsorted_edges(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", edges=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", edges=(2.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.histogram("h") is registry.histogram("h")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="Counter"):
            registry.histogram("x")

    def test_edge_conflict_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", edges=(1.0, 2.0))
        with pytest.raises(ValueError, match="different edges"):
            registry.histogram("h", edges=(1.0, 3.0))
        # Same edges are fine.
        registry.histogram("h", edges=(1.0, 2.0))

    def test_snapshot_sorted_and_written(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc(2)
        assert list(registry.snapshot()) == ["a", "b"]
        out = tmp_path / "metrics.json"
        registry.write_json(out)
        assert out.read_text(encoding="utf-8") == registry.to_json() + "\n"

    def test_reset(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.reset()
        assert registry.names() == ()


class TestHistogramValueHardening:
    """PR 9 regression: a poisoned observation must fail loudly, not
    corrupt the bucket counts every downstream quantile reads."""

    def test_record_rejects_nan(self):
        histogram = MetricsRegistry().histogram("h")
        with pytest.raises(ValueError, match="finite and non-negative"):
            histogram.record(float("nan"))

    def test_record_rejects_infinities_and_negatives(self):
        histogram = MetricsRegistry().histogram("h")
        for bad in (float("inf"), float("-inf"), -0.001, -5):
            with pytest.raises(ValueError, match="finite and non-negative"):
                histogram.record(bad)

    def test_record_many_rejects_any_poisoned_value(self):
        histogram = MetricsRegistry().histogram("h")
        with pytest.raises(ValueError, match="finite and non-negative"):
            histogram.record_many([0.1, float("nan"), 0.2])
        with pytest.raises(ValueError, match="finite and non-negative"):
            histogram.record_many([0.1, -0.2])
        # Nothing was recorded by the failed batches.
        assert histogram.count == 0

    def test_record_still_accepts_zero_and_positive(self):
        histogram = MetricsRegistry().histogram("h")
        histogram.record(0.0)
        histogram.record(12.5)
        histogram.record_many([0.25, 3.0])
        assert histogram.count == 4
