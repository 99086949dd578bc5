"""Windowed monitors: sliding histograms, SLO burn rates, and the one
registry's window configuration and tick."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics_runtime import MetricsRegistry, SloTracker
from repro.obs.window import WindowedHistogram


class TestWindowedHistogram:
    def test_quantiles_track_the_window(self):
        window = WindowedHistogram("w.test", window_ticks=4)
        for value in (0.01, 0.02, 0.03, 10.0):
            window.observe(value)
        assert window.window_count() == 4
        # p50 is the upper edge of the bucket holding rank 2 (a quarter-
        # decade above 0.02/0.03); p99 clamps to the observed max.
        assert 0.02 <= window.quantile(0.5) <= 0.1
        assert window.quantile(0.99) == 10.0

    def test_quantile_is_none_when_empty(self):
        window = WindowedHistogram("w.test")
        assert window.quantile(0.95) is None
        assert window.window_count() == 0

    def test_old_ticks_fall_out_of_the_window(self):
        window = WindowedHistogram("w.test", window_ticks=2)
        window.observe(100.0)
        assert window.quantile(0.99) == 100.0
        window.advance()          # 100.0 now in the older surviving slot
        window.observe(0.01)
        assert window.quantile(0.99) == 100.0
        window.advance()          # 100.0's slot rolls off
        assert window.quantile(0.99) <= 0.01 or window.quantile(0.99) is None
        window.advance()
        assert window.quantile(0.99) is None

    def test_current_tick_counts_toward_the_window(self):
        window = WindowedHistogram("w.test", window_ticks=8)
        window.observe(1.0)
        assert window.window_count() == 1  # no advance needed

    def test_labels_partition_series(self):
        window = WindowedHistogram("w.test", label_names=("model", "cache"))
        window.observe(0.1, model="a", cache="hit")
        window.observe(9.0, model="b", cache="miss")
        assert window.window_count(model="a", cache="hit") == 1
        assert window.quantile(0.99, model="b", cache="miss") == 9.0
        assert window.window_count(model="a", cache="miss") == 0

    def test_wrong_labels_raise(self):
        window = WindowedHistogram("w.test", label_names=("model",))
        with pytest.raises(ValueError, match="takes labels"):
            window.observe(1.0)
        with pytest.raises(ValueError, match="takes labels"):
            window.observe(1.0, model="a", extra="b")

    def test_poisoned_observations_raise(self):
        window = WindowedHistogram("w.test")
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match="finite and non-negative"):
                window.observe(bad)

    def test_quantile_range_validated(self):
        window = WindowedHistogram("w.test")
        with pytest.raises(ValueError, match="quantile"):
            window.quantile(0.0)
        with pytest.raises(ValueError, match="quantile"):
            window.quantile(1.5)

    def test_snapshot_is_deterministic_and_sorted(self):
        def build():
            window = WindowedHistogram("w.test", label_names=("m",),
                                       window_ticks=4)
            window.observe(0.5, m="b")
            window.observe(0.25, m="a")
            window.advance()
            window.observe(1.5, m="a")
            return window.snapshot()

        first, second = build(), build()
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True)
        assert [series["labels"] for series in first["series"]] == [
            {"m": "a"}, {"m": "b"}]
        assert first["tick"] == 1
        assert first["series"][0]["window"]["count"] == 2

    def test_cumulative_view_keeps_ticks_that_left_the_window(self):
        window = WindowedHistogram("w.test", window_ticks=2)
        window.observe(100.0)
        window.advance()
        window.observe(0.5)
        window.advance()          # 100.0 leaves the window
        assert window.window_count() == 1
        series, = window.snapshot()["series"]
        assert series["window"]["count"] == 1
        assert series["window"]["max"] == 0.5
        assert (series["count"], series["sum"], series["max"]) == (
            2, 100.5, 100.0)
        assert window.count == 2

    def test_label_values_with_separators_stay_distinct(self):
        window = WindowedHistogram("w.test", label_names=("model", "cache"))
        window.observe(1.0, model="a,cache=b", cache="c")
        window.observe(2.0, model="a", cache="b,cache=c")
        series = window.snapshot()["series"]
        assert [(s["labels"], s["count"]) for s in series] == [
            ({"model": "a", "cache": "b,cache=c"}, 1),
            ({"model": "a,cache=b", "cache": "c"}, 1)]

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="window_ticks"):
            WindowedHistogram("w", window_ticks=0)
        with pytest.raises(ValueError, match="increasing edges"):
            WindowedHistogram("w", edges=(2.0, 1.0))


class TestSloTracker:
    def test_observe_classifies_against_target(self):
        slo = SloTracker("s.test", target=0.5)
        assert slo.observe(0.4) is True
        assert slo.observe(0.5) is True
        assert slo.observe(0.6) is False

    def test_burn_rate_is_bad_fraction_over_budget(self):
        slo = SloTracker("s.test", target=1.0, objective=0.99)
        for _ in range(99):
            slo.observe(0.5)
        slo.observe(2.0)
        # 1% bad at a 1% budget: burning exactly at sustainable pace.
        assert slo.burn_rate("short") == pytest.approx(1.0)
        assert slo.burn_rate("long") == pytest.approx(1.0)

    def test_short_window_recovers_faster_than_long(self):
        slo = SloTracker("s.test", target=1.0, objective=0.9,
                         short_ticks=1, long_ticks=8)
        slo.observe(5.0)          # one bad observation this tick
        slo.advance()
        for _ in range(9):
            slo.observe(0.1)
        # The bad tick left the short window but still burdens the long.
        assert slo.burn_rate("short") == 0.0
        assert slo.burn_rate("long") > 0.0

    def test_empty_windows_burn_nothing(self):
        slo = SloTracker("s.test", target=1.0)
        assert slo.burn_rate("short") == 0.0
        assert slo.burn_rate("long") == 0.0
        with pytest.raises(ValueError, match="short.*long"):
            slo.burn_rate("weekly")

    def test_snapshot_shape(self):
        slo = SloTracker("s.test", target=1.0, objective=0.5)
        slo.observe(0.1)
        slo.observe(9.0)
        snap = slo.snapshot()
        assert snap["kind"] == "slo"
        assert snap["good_total"] == 1
        assert snap["bad_total"] == 1
        assert snap["windows"]["short"]["burn_rate"] == pytest.approx(1.0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="positive finite target"):
            SloTracker("s", target=0.0)
        with pytest.raises(ValueError, match="objective"):
            SloTracker("s", target=1.0, objective=1.0)
        with pytest.raises(ValueError, match="short_ticks"):
            SloTracker("s", target=1.0, short_ticks=5, long_ticks=2)


class TestWindowRegistry:
    def test_get_or_create_returns_same_monitor(self):
        registry = MetricsRegistry()
        assert registry.histogram("w.a", window_ticks=8) is (
            registry.histogram("w.a", window_ticks=8))
        assert registry.slo("s.a", target=1.0) is registry.slo("s.a",
                                                               target=1.0)

    def test_kind_and_config_conflicts_raise(self):
        registry = MetricsRegistry()
        registry.histogram("w.a", label_names=("m",), window_ticks=8)
        with pytest.raises(ValueError, match="different label_names"):
            registry.histogram("w.a", label_names=("m", "c"),
                               window_ticks=8)
        with pytest.raises(ValueError, match="different window_ticks"):
            registry.histogram("w.a", label_names=("m",), window_ticks=2)
        with pytest.raises(ValueError, match="different edges"):
            registry.histogram("w.a", edges=(1.0, 2.0), label_names=("m",),
                               window_ticks=8)
        with pytest.raises(ValueError, match="not a SloTracker"):
            registry.slo("w.a", target=1.0)
        registry.slo("s.a", target=1.0)
        with pytest.raises(ValueError, match="different target"):
            registry.slo("s.a", target=2.0)
        with pytest.raises(ValueError, match="different objective"):
            registry.slo("s.a", target=1.0, objective=0.9)
        with pytest.raises(ValueError,
                           match="different short_ticks, long_ticks"):
            registry.slo("s.a", target=1.0, short_ticks=2, long_ticks=6)
        with pytest.raises(ValueError, match="not a Histogram"):
            registry.histogram("s.a")

    def test_advance_all_moves_every_monitor_in_lockstep(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("w.a", window_ticks=2)
        slo = registry.slo("s.a", target=1.0, short_ticks=1, long_ticks=2)
        histogram.record(5.0)
        slo.observe(5.0)
        assert registry.advance_all() == 1
        assert registry.advance_all() == 2
        assert histogram.tick == 2
        assert histogram.quantile(0.99) is None  # rolled off
        assert slo.burn_rate("long") == 0.0

    def test_snapshot_and_json_are_deterministic(self, tmp_path):
        def build():
            registry = MetricsRegistry()
            registry.histogram("w.b", window_ticks=8).record(0.5)
            registry.histogram("w.a", window_ticks=8).record(1.5)
            registry.slo("s.a", target=1.0).observe(2.0)
            return registry

        first, second = build(), build()
        assert first.to_json() == second.to_json()
        assert list(first.snapshot()) == ["s.a", "w.a", "w.b"]
        out = tmp_path / "windows.json"
        first.write_json(out)
        assert out.read_text(encoding="utf-8") == first.to_json() + "\n"

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.histogram("w.a", window_ticks=8).record(1.0)
        registry.advance_all()
        registry.reset()
        assert registry.names() == ()
        assert registry.tick == 0
