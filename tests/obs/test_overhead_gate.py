"""The disabled-tracing overhead gate must catch a slow wrapper.

``repro bench obs`` gates ``disabled_overhead_pct`` at 3%.  A gate that
reads near zero on working code shows nothing unless it also trips on
broken code: here the instrumented ``featurize_batch`` wrapper is made
slower by a delay worth 5% of the gated batch's direct compile + encode
time — once per call, then spread over the queries — and the gate must
read above its bound both times.
"""

from __future__ import annotations

import time

import pytest

from repro.bench import run_obs_bench
from repro.featurize import ConjunctiveEncoding

#: The CI gate's bound (``repro bench obs --max-overhead`` default).
GATE_PCT = 3.0

#: A workload small enough for tier-1, run as a full (non-smoke) bench.
SIZES = {"rows": 1_000, "queries": 400, "repeats": 2}


def _spin(seconds: float) -> None:
    """Busy-wait: a sleep's wake-up granularity would blur the delay."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


@pytest.fixture(scope="module")
def clean_report():
    return run_obs_bench(**SIZES)


def test_clean_wrapper_passes_the_gate(clean_report):
    assert clean_report["disabled_overhead_pct"] <= GATE_PCT
    model = clean_report["disabled_model"]
    assert model["batch_sizes"] == [1, 256]
    assert model["per_call_us"] > 0.0


@pytest.mark.parametrize("spread", ["per-call", "per-query"])
def test_injected_delay_fails_the_gate(clean_report, monkeypatch, spread):
    delay = 0.05 * clean_report["baseline_seconds"]
    original = ConjunctiveEncoding.featurize_batch

    def slow_featurize_batch(self, queries):
        queries = list(queries)
        if spread == "per-call":
            _spin(delay)
        else:
            _spin(delay * len(queries) / SIZES["queries"])
        return original(self, queries)

    monkeypatch.setattr(ConjunctiveEncoding, "featurize_batch",
                        slow_featurize_batch)
    report = run_obs_bench(**SIZES)
    assert report["disabled_overhead_pct"] > GATE_PCT, report[
        "disabled_model"]
