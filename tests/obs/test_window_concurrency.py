"""Byte-stability of snapshots under concurrent writers.

Snapshots promise to be a pure function of the observation multiset
(per tick, for a window) — not of thread scheduling.  These tests drive
N threads × M ticks against one metric, with a barrier at every tick
boundary so each tick's multiset is fixed, and assert the JSON snapshot
is byte-identical no matter how many threads wrote or in what
interleaving.  The cumulative cases also shorten the interpreter's
switch interval, so writers interleave inside ``record`` itself.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.obs.metrics_runtime import MetricsRegistry, SloTracker
from repro.obs.window import WindowedHistogram

N_TICKS = 5
PER_TICK = 240  # observations per tick, divisible by every thread count
#: Seconds any barrier wait or join may take before the test fails.
TIMEOUT = 60.0


def tick_values(tick: int) -> list[float]:
    """The fixed observation multiset of one tick (deterministic)."""
    return [((tick * PER_TICK + i) % 97) / 13.0 for i in range(PER_TICK)]


@pytest.fixture()
def fast_switching():
    """Switch threads every microsecond while the test runs."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def run_writers(n_threads: int, write, advance) -> None:
    """``write(worker_index, tick)`` from ``n_threads`` threads per tick,
    then ``advance()`` from this thread once every writer is done."""
    barrier = threading.Barrier(n_threads + 1, timeout=TIMEOUT)

    def worker(worker_index: int) -> None:
        for tick in range(N_TICKS):
            write(worker_index, tick)
            barrier.wait()  # everyone finished this tick's share
            barrier.wait()  # main thread advanced; next tick may start

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(n_threads)]
    for thread in threads:
        thread.start()
    for _ in range(N_TICKS):
        barrier.wait()
        advance()
        barrier.wait()
    for thread in threads:
        thread.join(timeout=TIMEOUT)
        assert not thread.is_alive()


def run_histogram(n_threads: int) -> dict:
    window = WindowedHistogram("w.conc", label_names=("lane",),
                               window_ticks=3)

    def write(worker_index: int, tick: int) -> None:
        for value in tick_values(tick)[worker_index::n_threads]:
            window.observe(value, lane=str(int(value * 13) % 3))

    run_writers(n_threads, write, window.advance)
    return window.snapshot()


def run_slo(n_threads: int) -> str:
    slo = SloTracker("s.conc", target=3.0, objective=0.9,
                     short_ticks=2, long_ticks=4)

    def write(worker_index: int, tick: int) -> None:
        for value in tick_values(tick)[worker_index::n_threads]:
            slo.observe(value)

    run_writers(n_threads, write, slo.advance)
    return json.dumps(slo.snapshot(), sort_keys=True)


def run_plain(n_threads: int) -> str:
    """Every tick's values into a plain (unwindowed) registry histogram
    through ``record``, then the registry's JSON."""
    registry = MetricsRegistry()
    histogram = registry.histogram("h.conc")

    def write(worker_index: int, tick: int) -> None:
        for value in tick_values(tick)[worker_index::n_threads]:
            histogram.record(value)

    run_writers(n_threads, write, lambda: None)
    return registry.to_json()


def cumulative_part(snapshot: dict) -> str:
    """A windowed snapshot's cumulative fields (every tick ever seen)."""
    return json.dumps([{key: value for key, value in series.items()
                        if key != "window"}
                       for series in snapshot["series"]], sort_keys=True)


class TestConcurrentByteStability:
    def test_histogram_snapshot_independent_of_writer_count(self):
        single = json.dumps(run_histogram(1), sort_keys=True)
        assert json.dumps(run_histogram(4), sort_keys=True) == single
        assert json.dumps(run_histogram(8), sort_keys=True) == single

    def test_histogram_snapshot_repeatable_at_same_writer_count(self):
        assert run_histogram(6) == run_histogram(6)

    def test_slo_snapshot_independent_of_writer_count(self):
        single = run_slo(1)
        assert run_slo(4) == single
        assert run_slo(8) == single

    def test_plain_histogram_independent_of_writer_count(
            self, fast_switching):
        single = run_plain(1)
        assert json.loads(single)["h.conc"]["series"][0]["count"] == (
            N_TICKS * PER_TICK)
        assert run_plain(4) == single
        assert run_plain(8) == single

    def test_cumulative_window_part_independent_of_writer_count(
            self, fast_switching):
        single = cumulative_part(run_histogram(1))
        assert sum(series["count"] for series in json.loads(single)) == (
            N_TICKS * PER_TICK)
        assert cumulative_part(run_histogram(4)) == single
        assert cumulative_part(run_histogram(8)) == single

    def test_registry_advance_all_under_writers(self):
        """advance_all from the main thread while workers record a
        fixed per-tick multiset: final to_json is writer-count
        independent."""

        def run(n_threads: int) -> str:
            registry = MetricsRegistry()
            histogram = registry.histogram("w.reg", window_ticks=3)
            slo = registry.slo("s.reg", target=3.0, objective=0.9)

            def write(worker_index: int, tick: int) -> None:
                for value in tick_values(tick)[worker_index::n_threads]:
                    histogram.record(value)
                    slo.observe(value)

            run_writers(n_threads, write, registry.advance_all)
            return registry.to_json()

        assert run(1) == run(5)
