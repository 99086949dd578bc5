"""Prometheus text exposition: rendering, strict parsing, round trips."""

from __future__ import annotations

import pytest

from repro.obs.metrics_runtime import MetricsRegistry
from repro.obs.prometheus import (
    CONTENT_TYPE,
    escape_label_value,
    parse_exposition,
    prometheus_name,
    render_prometheus,
    render_snapshots,
)


class TestNames:
    def test_dotted_names_flatten(self):
        assert prometheus_name("serve.requests_total") == (
            "serve_requests_total")
        assert prometheus_name("a.b.c") == "a_b_c"

    def test_invalid_names_raise(self):
        with pytest.raises(ValueError, match="Prometheus"):
            prometheus_name("serve.9bad-name")

    def test_label_escaping(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'

    def test_content_type_pins_the_format_version(self):
        assert "version=0.0.4" in CONTENT_TYPE


class TestRender:
    def test_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.counter("serve.requests_total").inc(3)
        registry.gauge("serve.inflight").set(2)
        text = render_prometheus(registry)
        assert "# TYPE serve_requests_total counter" in text
        assert "serve_requests_total 3" in text
        assert "# TYPE serve_inflight gauge" in text
        assert "serve_inflight 2" in text

    def test_histogram_buckets_are_cumulative_with_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h.lat", edges=(0.1, 1.0))
        for value in (0.05, 0.05, 0.5, 5.0):
            histogram.record(value)
        text = render_prometheus(registry)
        assert 'h_lat_bucket{le="0.1"} 2' in text
        assert 'h_lat_bucket{le="1.0"} 3' in text
        assert 'h_lat_bucket{le="+Inf"} 4' in text
        assert "h_lat_count 4" in text

    def test_windowed_histogram_renders_as_summary(self):
        registry = MetricsRegistry()
        window = registry.histogram("w.qerr", label_names=("model",),
                                    window_ticks=8)
        for value in (1.0, 2.0, 50.0):
            window.record(value, model="m1")
        text = render_prometheus(registry)
        assert "# TYPE w_qerr_window summary" in text
        assert 'w_qerr_window{model="m1",quantile="0.99"} 50' in text
        assert 'w_qerr_window_count{model="m1"} 3' in text
        # The same series is also a labeled cumulative histogram.
        assert "# TYPE w_qerr histogram" in text
        assert 'w_qerr_bucket{model="m1",le="+Inf"} 3' in text
        assert 'w_qerr_count{model="m1"} 3' in text

    def test_slo_renders_totals_and_burn_rates(self):
        registry = MetricsRegistry()
        slo = registry.slo("s.lat", target=1.0, objective=0.5)
        slo.observe(0.1)
        slo.observe(9.0)
        text = render_prometheus(registry)
        assert "s_lat_good_total 1" in text
        assert "s_lat_bad_total 1" in text
        assert 's_lat_burn_rate{window="short"} 1' in text
        assert 's_lat_burn_rate{window="long"} 1' in text

    def test_empty_registries_render_empty_page(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_rendering_is_deterministic(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("b.total").inc()
            registry.counter("a.total").inc(2)
            registry.histogram("h.lat").record(0.5)
            registry.histogram("w.lat", label_names=("m",),
                               window_ticks=8).record(0.1, m="x")
            registry.slo("s.lat", target=1.0).observe(0.5)
            return render_prometheus(registry)

        first, second = build(), build()
        assert first == second
        # Family blocks appear in sorted flattened-name order (the SLO
        # block itself holds three TYPE lines, so compare block starts).
        order = [first.index(f"# TYPE {name}") for name in
                 ("a_total", "b_total", "h_lat", "s_lat_good_total",
                  "w_lat", "w_lat_window")]
        assert order == sorted(order)

    def test_sources_gain_a_label_and_share_type_lines(self):
        def snapshot(count: int) -> dict:
            registry = MetricsRegistry()
            registry.counter("x.total").inc(count)
            registry.histogram("h.lat", label_names=("m",),
                               window_ticks=8).record(0.5, m="a")
            return registry.snapshot()

        text = render_snapshots({"w1": snapshot(2), "w0": snapshot(1)},
                                source_label="worker")
        assert text.count("# TYPE x_total counter") == 1
        assert 'x_total{worker="w0"} 1\nx_total{worker="w1"} 2' in text
        assert 'h_lat_bucket{m="a",worker="w1",le="+Inf"} 1' in text
        assert 'h_lat_window_count{m="a",worker="w0"} 1' in text
        parse_exposition(text)


class TestParseExposition:
    def test_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("serve.requests_total").inc(5)
        registry.histogram("serve.request.seconds").record(0.02)
        registry.histogram("serve.qerror", label_names=("model", "table"),
                           window_ticks=8).record(
            3.0, model="m1", table="forest")
        registry.slo("serve.latency.slo", target=0.5).observe(0.1)
        text = render_prometheus(registry)
        families = parse_exposition(text)
        assert families["serve_requests_total"]["type"] == "counter"
        assert families["serve_request_seconds"]["type"] == "histogram"
        assert families["serve_qerror"]["type"] == "histogram"
        assert families["serve_qerror_window"]["type"] == "summary"
        quantiles = [labels for name, labels, _ in
                     families["serve_qerror_window"]["samples"]
                     if "quantile" in labels]
        assert {"model": "m1", "table": "forest",
                "quantile": "0.99"} in quantiles

    def test_rejects_sample_without_type(self):
        with pytest.raises(ValueError, match="no preceding TYPE"):
            parse_exposition("orphan_metric 1\n")

    def test_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="malformed sample"):
            parse_exposition("# TYPE a counter\na{ 1\n")
        with pytest.raises(ValueError, match="malformed value"):
            parse_exposition("# TYPE a counter\na x\n")
        with pytest.raises(ValueError, match="malformed TYPE"):
            parse_exposition("# TYPE a\n")
        with pytest.raises(ValueError, match="unknown metric type"):
            parse_exposition("# TYPE a widget\n")
        with pytest.raises(ValueError, match="duplicate TYPE"):
            parse_exposition("# TYPE a counter\n# TYPE a counter\n")

    def test_rejects_non_cumulative_histogram(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="0.1"} 5\n'
                'h_bucket{le="1.0"} 3\n'
                'h_bucket{le="+Inf"} 5\n'
                "h_sum 1\n"
                "h_count 5\n")
        with pytest.raises(ValueError, match="not cumulative"):
            parse_exposition(text)

    def test_rejects_inf_bucket_count_mismatch(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="+Inf"} 5\n'
                "h_sum 1\n"
                "h_count 4\n")
        with pytest.raises(ValueError, match="does not.*match _count"):
            parse_exposition(text)

    def test_rejects_missing_inf_bucket(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="0.1"} 5\n'
                "h_sum 1\n"
                "h_count 5\n")
        with pytest.raises(ValueError, match="no \\+Inf bucket"):
            parse_exposition(text)
