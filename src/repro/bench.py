"""Micro-benchmarks: featurize, lint, obs overhead and forest inference.

:func:`run_featurize_bench` measures what batching a workload is worth:
every case times a per-query ``featurize`` loop (one-query batches)
against one ``featurize_batch`` call over the same workload, and
verifies the two matrices are identical — i.e. that batching is
row-independent — before reporting a speedup.  Pass timings come from
``bench.scalar_pass`` / ``bench.batch_pass`` spans (under
:func:`repro.obs.ensure_tracing`), so a traced benchmark run exports the
same numbers it reports.  Its **planned** legs time the serving path's
encode — ``encode_with_plans`` over statements planned once from their
SQL fingerprints — per query at the batch sizes the server sees, each
with its own bitwise check against ``featurize_batch``.

:func:`run_lint_bench` times full-tree lint runs, best of ``repeats``,
and splits the best run into the engine's stage spans (committed as
``BENCH_lint.json``).

:func:`run_obs_bench` guards the observability layer itself: it
measures what the instrumented ``featurize_batch`` wrapper costs over
compile + encode called directly — with tracing disabled (the no-op span
path) as a per-call plus per-query model scaled to the gated batch, and
with tracing enabled end to end — and reports the overhead percentages
(committed as ``BENCH_obs.json``; the disabled-mode number is gated at
≤ 3% in CI).

:func:`run_predict_bench` isolates forest inference: the legacy
per-tree python predict loop against the packed
:class:`~repro.models.compiled_forest.CompiledForest` on identical
feature matrices, asserting bitwise-equal outputs (committed as
``BENCH_predict.json``; CI gates the compiled path at ≥ 3× across all
measured batch sizes).

Serving is measured end to end by the repository benchmark
(``perfbench/``), not here; its per-workload medians are committed as
``BENCH_serve.json``.

This module computes and returns results only; printing and process exit
codes live in :mod:`repro.cli` (``repro bench featurize`` / ``lint`` /
``obs`` / ``predict``), and the pytest-driven benchmark lives in
``benchmarks/test_featurize_throughput.py``.  :func:`write_report` heads
every report with the host, versions and commit it was measured on.

Raw ``time.perf_counter`` use is deliberate here (and exempt from lint
rule RPR108): interleaved best-of-N timing needs the clock directly,
and the obs benchmark must time the *uninstrumented* path without
touching the tracer it is measuring.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro import config, obs
from repro.data.forest import generate_forest
from repro.data.table import Table
from repro.featurize import (
    ConjunctiveEncoding,
    DisjunctionEncoding,
    RangeEncoding,
    SingularEncoding,
)
from repro.sql.ast import Query
from repro.workloads import generate_conjunctive_queries, generate_mixed_queries

__all__ = ["BenchCase", "run_featurize_bench", "run_lint_bench",
           "run_obs_bench", "run_predict_bench", "write_report"]

#: (featurizer label, workload label) cases the benchmark measures.
_CASES = (
    ("simple", "conjunctive"),
    ("range", "conjunctive"),
    ("conjunctive", "conjunctive"),
    ("complex", "conjunctive"),
    ("complex", "mixed"),
)

#: (featurizer label, workload label) of the planned-encode legs.
_PLANNED_CASES = (
    ("conjunctive", "conjunctive"),
    ("complex", "mixed"),
)

#: Planned-encode batch sizes: a single request, a mixed ad-hoc batch,
#: and the micro-batcher's full batch.
_PLANNED_BATCH_SIZES = (1, 16, 64)

#: Queries timed per planned leg (the workload's first ones).
_PLANNED_QUERIES = 2_048


@dataclass(frozen=True)
class BenchCase:
    """One per-query-loop vs whole-batch measurement.

    ``scalar_seconds`` times the per-query ``featurize`` loop,
    ``batch_seconds`` one ``featurize_batch`` call, and ``identical``
    records that both produced the same matrix bitwise.
    """

    featurizer: str
    workload: str
    n_queries: int
    feature_length: int
    scalar_seconds: float
    batch_seconds: float
    identical: bool

    @property
    def speedup(self) -> float:
        """Per-query-loop time over batch time (higher is better)."""
        if self.batch_seconds <= 0.0:
            return float("inf")
        return self.scalar_seconds / self.batch_seconds

    def row(self) -> dict:
        """JSON-serialisable summary of this case."""
        return {
            "featurizer": self.featurizer,
            "workload": self.workload,
            "n_queries": self.n_queries,
            "feature_length": self.feature_length,
            "scalar_seconds": self.scalar_seconds,
            "batch_seconds": self.batch_seconds,
            "speedup": self.speedup,
            "identical": self.identical,
        }


def _build_featurizer(label: str, table: Table, partitions: int):
    if label == "simple":
        return SingularEncoding(table)
    if label == "range":
        return RangeEncoding(table)
    if label == "conjunctive":
        return ConjunctiveEncoding(table, max_partitions=partitions)
    if label == "complex":
        return DisjunctionEncoding(table, max_partitions=partitions)
    raise ValueError(f"unknown featurizer label {label!r}")


def _time_case(featurizer, queries: Sequence[Query],
               featurizer_label: str, workload_label: str,
               repeats: int) -> BenchCase:
    # One untimed pass per path first: the process's first large
    # allocations page-fault fresh memory, which would otherwise charge
    # a one-time OS cost to whichever path happens to run first.
    scalar = np.stack([featurizer.featurize(q) for q in queries])
    batch = featurizer.featurize_batch(queries)
    identical = bool(np.array_equal(scalar, batch))

    scalar_seconds = float("inf")
    batch_seconds = float("inf")
    with obs.ensure_tracing():
        for _ in range(repeats):
            with obs.span("bench.scalar_pass", featurizer=featurizer_label,
                          workload=workload_label) as sp:
                np.stack([featurizer.featurize(q) for q in queries])
            scalar_seconds = min(scalar_seconds, sp.duration_seconds)

            with obs.span("bench.batch_pass", featurizer=featurizer_label,
                          workload=workload_label) as sp:
                featurizer.featurize_batch(queries)
            batch_seconds = min(batch_seconds, sp.duration_seconds)

    return BenchCase(
        featurizer=featurizer_label,
        workload=workload_label,
        n_queries=len(queries),
        feature_length=featurizer.feature_length,
        scalar_seconds=scalar_seconds,
        batch_seconds=batch_seconds,
        identical=identical,
    )


def _time_planned(featurizer, queries: Sequence[Query],
                  featurizer_label: str, workload_label: str,
                  repeats: int) -> list[dict]:
    """Per-query ``encode_with_plans`` time at each planned batch size.

    Every statement is planned as the server plans it — its SQL text's
    fingerprint key parsed into a template and compiled once per key —
    untimed.  Each leg then encodes the statements in consecutive
    batches of ``n``, best of ``repeats``, and is ``identical`` when the
    stacked batches equal ``featurize_batch`` of the same queries.
    """
    from repro.sql.parser import fingerprint_sql, parse_template

    plans: dict = {}
    requests = []
    for query in queries:
        key, literals = fingerprint_sql(query.to_sql())
        if key not in plans:
            plans[key] = featurizer.compile_plan(
                parse_template(key, len(literals)), len(literals))
        requests.append((plans[key], literals))
    expected = featurizer.featurize_batch(queries)
    legs = []
    for n in _PLANNED_BATCH_SIZES:
        batches = [([plan for plan, _ in requests[i:i + n]],
                    [literals for _, literals in requests[i:i + n]])
                   for i in range(0, len(requests), n)]
        encoded = np.concatenate([featurizer.encode_with_plans(*batch)
                                  for batch in batches])
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for batch in batches:
                featurizer.encode_with_plans(*batch)
            best = min(best, time.perf_counter() - start)
        legs.append({
            "featurizer": featurizer_label,
            "workload": workload_label,
            "batch_size": n,
            "n_queries": len(requests),
            "n_plans": len(plans),
            "us_per_query": best / len(requests) * 1e6,
            "identical": bool(np.array_equal(encoded, expected)),
        })
    return legs


def run_featurize_bench(rows: int = 10_000, queries: int = 10_000,
                        partitions: int = config.DEFAULT_PARTITIONS,
                        seed: int = config.DEFAULT_SEED,
                        smoke: bool = False, repeats: int = 3) -> dict:
    """Benchmark per-query vs batch featurization; return the report dict.

    Each case runs one untimed warm-up pass per path (whose output also
    feeds the bitwise-equality check), then reports the best of
    ``repeats`` timed runs.  The ``planned`` legs time the serving
    encode per query at batch sizes 1, 16 and 64 (see
    :func:`_time_planned`); ``all_identical`` covers them too.
    ``smoke`` shrinks the workload to a seconds-long configuration for
    CI: the equivalence checks still run on real queries, only the
    timing sample is small.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if smoke:
        rows = min(rows, 1_000)
        queries = min(queries, 300)
        repeats = 1
    table = generate_forest(rows=rows, seed=seed)
    workloads = {
        "conjunctive": generate_conjunctive_queries(
            table, queries, seed=seed),
        "mixed": generate_mixed_queries(table, queries, seed=seed + 1),
    }
    cases: list[BenchCase] = []
    for featurizer_label, workload_label in _CASES:
        featurizer = _build_featurizer(featurizer_label, table, partitions)
        cases.append(_time_case(featurizer, workloads[workload_label],
                                featurizer_label, workload_label, repeats))
    planned: list[dict] = []
    for featurizer_label, workload_label in _PLANNED_CASES:
        featurizer = _build_featurizer(featurizer_label, table, partitions)
        planned += _time_planned(
            featurizer, workloads[workload_label][:_PLANNED_QUERIES],
            featurizer_label, workload_label, repeats)
    return {
        "benchmark": "featurize",
        "config": {
            "rows": rows,
            "queries": queries,
            "partitions": partitions,
            "seed": seed,
            "smoke": smoke,
            "repeats": repeats,
        },
        "cases": [case.row() for case in cases],
        "planned": planned,
        "all_identical": (all(case.identical for case in cases)
                          and all(leg["identical"] for leg in planned)),
        "min_speedup": min(case.speedup for case in cases),
    }


def run_lint_bench(paths: Sequence[str] = ("src",),
                   repeats: int = 3) -> dict:
    """Benchmark full-tree lint runs; return the report.

    Every run analyses the tree from scratch (the linter keeps no state
    between runs).  The best of ``repeats`` runs is reported, together
    with its per-stage seconds read from the engine's ``lint.*`` spans.
    """
    from repro.lint import load_config
    from repro.lint.engine import run as lint_run

    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    target_paths = [Path(p) for p in paths]
    lint_config = load_config(target_paths[0])
    cold_seconds = float("inf")
    stage_seconds: dict[str, float] = {}
    with obs.ensure_tracing() as tracer:
        for _ in range(repeats):
            with obs.span("bench.lint_pass") as sp:
                result = lint_run(target_paths, lint_config)
            if sp.duration_seconds < cold_seconds:
                cold_seconds = sp.duration_seconds
                stage_seconds = {
                    child.name.removeprefix("lint."):
                        child.duration_seconds
                    for child in tracer.finished()
                    if child.parent_id == sp.span_id}
    return {
        "benchmark": "lint",
        "config": {
            "paths": [str(p) for p in target_paths],
            "repeats": repeats,
        },
        "files_scanned": result.files_scanned,
        "cold_seconds": cold_seconds,
        "stage_seconds": stage_seconds,
        "findings": len(result.findings),
    }


#: Batch sizes the disabled-tracing overhead is measured at: one query
#: prices the wrapper's per-call cost, the larger batch its per-query
#: cost (capped by the workload size).
_OVERHEAD_SIZES = (1, 256)


def _paired_overhead(direct, wrapped, calls: int, rounds: int) -> float:
    """Median extra seconds per call of ``wrapped`` over ``direct``.

    Each round times one block of ``calls`` calls per path, back to
    back and with the garbage collector off, alternating which path
    goes first; the median of the per-round differences shrugs off a
    block that a noisy neighbour slowed down.
    """
    differences = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for round_index in range(rounds):
            order = ((direct, wrapped) if round_index % 2 == 0
                     else (wrapped, direct))
            elapsed = []
            for fn in order:
                start = time.perf_counter()
                for _ in range(calls):
                    fn()
                elapsed.append(time.perf_counter() - start)
            if round_index % 2:
                elapsed.reverse()
            differences.append((elapsed[1] - elapsed[0]) / calls)
    finally:
        if collecting:
            gc.enable()
    return float(np.median(differences))


def run_obs_bench(rows: int = 10_000, queries: int = 10_000,
                  partitions: int = config.DEFAULT_PARTITIONS,
                  seed: int = config.DEFAULT_SEED,
                  smoke: bool = False, repeats: int = 7) -> dict:
    """Measure the observability layer's overhead on batch featurization.

    The gated number is what the instrumented ``featurize_batch``
    wrapper adds, with tracing off (no-op spans plus the always-on
    counters, the production default), to compile + encode called
    directly on the conjunctive workload.  Timing two whole batches and
    subtracting would bury a cost of microseconds per call under the
    run-to-run noise of a batch lasting tens of milliseconds, so the
    wrapper is measured instead: interleaved, GC-off blocks of wrapper
    calls against direct calls at two batch sizes
    (:data:`_OVERHEAD_SIZES`), whose difference splits into a per-call
    and a per-query cost.  That model, scaled to the whole workload and
    divided by its direct compile + encode time (``baseline_seconds``),
    is ``disabled_overhead_pct`` — the number the CI gate holds under
    3%: instrumentation must cost nothing when nobody is looking.

    ``enabled_overhead_pct`` (informational, not gated) times the whole
    workload through the wrapper with tracing on, against the direct
    path, interleaved, best of ``repeats``.

    Two telemetry hot-path legs ride along (best of the same
    ``repeats``), since both sit on the serving request path:

    * **window** — per-``observe`` cost of a labelled
      :class:`~repro.obs.window.WindowedHistogram` and per-``advance``
      cost of rolling its tick ring;
    * **events** — per-``record`` cost of the wide-event log with
      ``sample_every=1`` (keep everything) vs ``sample_every=16``
      (head sampling active), showing what sampling saves.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if smoke:
        rows = min(rows, 2_000)
        queries = min(queries, 2_000)
        repeats = min(repeats, 5)
    table = generate_forest(rows=rows, seed=seed)
    workload = generate_conjunctive_queries(table, queries, seed=seed)
    featurizer = _build_featurizer("conjunctive", table, partitions)

    def direct(batch_queries):
        batch = featurizer.compile_batch(batch_queries)
        return featurizer._featurize_compiled(batch)

    # Untimed warm-up of every path (page-faults, lazy allocations).
    reference = direct(workload)
    with obs.use_tracer(obs.Tracer(enabled=False)):
        instrumented = featurizer.featurize_batch(workload)
    if not np.array_equal(reference, instrumented):
        raise RuntimeError(
            "instrumented featurize_batch diverged from the direct "
            "compile+encode path")

    baseline_seconds = float("inf")
    enabled_seconds = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        direct(workload)
        baseline_seconds = min(baseline_seconds,
                               time.perf_counter() - start)
        with obs.use_tracer(obs.Tracer(enabled=True)):
            start = time.perf_counter()
            featurizer.featurize_batch(workload)
            enabled_seconds = min(enabled_seconds,
                                  time.perf_counter() - start)

    # Disabled-tracing overhead per call at two batch sizes, with the
    # work both paths share stubbed out: compile and encode return
    # their precomputed results, so the blocks time the wrapper itself
    # rather than the noise of the kernels it wraps.
    sizes = sorted({min(size, len(workload)) for size in _OVERHEAD_SIZES})
    compiled = {size: featurizer.compile_batch(workload[:size])
                for size in sizes}
    encoded = {id(batch): featurizer._featurize_compiled(batch)
               for batch in compiled.values()}

    def stub_compile(batch_queries):
        return compiled[len(batch_queries)]

    def stub_encode(batch):
        return encoded[id(batch)]

    per_call_overhead = []
    featurizer.compile_batch = stub_compile
    featurizer._featurize_compiled = stub_encode
    try:
        with obs.use_tracer(obs.Tracer(enabled=False)):
            for size in sizes:
                batch_queries = workload[:size]
                start = time.perf_counter()
                featurizer.featurize_batch(batch_queries)
                call_seconds = time.perf_counter() - start
                # Blocks of about 5 ms.
                calls = min(200, max(2, int(0.005 / max(call_seconds,
                                                        1e-6))))
                per_call_overhead.append(_paired_overhead(
                    lambda: stub_encode(stub_compile(batch_queries)),
                    lambda: featurizer.featurize_batch(batch_queries),
                    calls, rounds=4 * repeats))
    finally:
        del featurizer.compile_batch, featurizer._featurize_compiled
    if len(sizes) > 1:
        per_query = ((per_call_overhead[1] - per_call_overhead[0])
                     / (sizes[1] - sizes[0]))
    else:
        per_query = 0.0
    per_call = per_call_overhead[0] - per_query * sizes[0]
    disabled_overhead = per_call + per_query * len(workload)

    def overhead_pct(seconds: float) -> float:
        if baseline_seconds <= 0.0:
            return 0.0
        return seconds / baseline_seconds * 100.0

    from repro.obs.events import EventLog
    from repro.obs.window import WindowedHistogram

    telemetry_ops = min(4 * queries, 40_000)
    advance_ops = 1_024
    values = [(i % 97) / 7.0 for i in range(telemetry_ops)]
    observe_seconds = float("inf")
    advance_seconds = float("inf")
    keep_all_seconds = float("inf")
    sampled_seconds = float("inf")
    for _ in range(repeats):
        histogram = WindowedHistogram("bench.window",
                                      label_names=("model",),
                                      window_ticks=8)
        start = time.perf_counter()
        for value in values:
            histogram.observe(value, model="bench")
        observe_seconds = min(observe_seconds,
                              time.perf_counter() - start)

        start = time.perf_counter()
        for _ in range(advance_ops):
            histogram.advance()
        advance_seconds = min(advance_seconds,
                              time.perf_counter() - start)

        for sample_every in (1, 16):
            log = EventLog(capacity=1_024, sample_every=sample_every)
            start = time.perf_counter()
            for i in range(telemetry_ops):
                log.record(trace_id=i, fingerprint="bench",
                           model_version="bench", cache="hit",
                           latency_seconds=0.001, estimate=1.0)
            elapsed = time.perf_counter() - start
            if sample_every == 1:
                keep_all_seconds = min(keep_all_seconds, elapsed)
            else:
                sampled_seconds = min(sampled_seconds, elapsed)

    def ns_per_op(seconds: float, ops: int) -> float:
        return seconds / ops * 1e9 if ops else 0.0

    return {
        "benchmark": "obs",
        "config": {
            "rows": rows,
            "queries": queries,
            "partitions": partitions,
            "seed": seed,
            "smoke": smoke,
            "repeats": repeats,
        },
        "n_queries": len(workload),
        "feature_length": featurizer.feature_length,
        "baseline_seconds": baseline_seconds,
        "disabled_seconds": baseline_seconds + disabled_overhead,
        "enabled_seconds": enabled_seconds,
        "disabled_overhead_pct": overhead_pct(disabled_overhead),
        "enabled_overhead_pct": overhead_pct(
            enabled_seconds - baseline_seconds),
        "disabled_model": {
            "batch_sizes": sizes,
            "per_call_overhead_us": [seconds * 1e6
                                     for seconds in per_call_overhead],
            "per_call_us": per_call * 1e6,
            "per_query_us": per_query * 1e6,
        },
        "window": {
            "observe_ops": telemetry_ops,
            "observe_seconds": observe_seconds,
            "observe_ns_per_op": ns_per_op(observe_seconds, telemetry_ops),
            "advance_ops": advance_ops,
            "advance_seconds": advance_seconds,
            "advance_ns_per_op": ns_per_op(advance_seconds, advance_ops),
        },
        "events": {
            "record_ops": telemetry_ops,
            "keep_all_seconds": keep_all_seconds,
            "keep_all_ns_per_op": ns_per_op(keep_all_seconds,
                                            telemetry_ops),
            "sample_16_seconds": sampled_seconds,
            "sample_16_ns_per_op": ns_per_op(sampled_seconds,
                                             telemetry_ops),
        },
    }


def _legacy_forest_predict(model, features: np.ndarray) -> np.ndarray:
    """The per-tree GB predict loop: one python-level pass per tree.

    Kept here (same accumulation order) as the timing and bitwise
    reference for :func:`run_predict_bench`; the model's own
    ``predict`` always runs the packed forest.
    """
    prediction = np.full(features.shape[0], model._base)
    for tree in model.trees:
        prediction += model.learning_rate * tree.predict(features)
    return prediction


def run_predict_bench(rows: int = 4_000, queries: int = 4_096,
                      trees: int = 120,
                      partitions: int = config.DEFAULT_PARTITIONS,
                      seed: int = config.DEFAULT_SEED, smoke: bool = False,
                      repeats: int = 5,
                      batch_sizes: Sequence[int] = (1, 8, 64)) -> dict:
    """Benchmark compiled vs legacy forest inference; return the report.

    Trains a gradient-boosting model on a real featurized workload
    (conjunctive QFT over the synthetic forest table), then times
    ``predict`` over identical feature matrices two ways: the legacy
    per-tree python loop and the packed
    :class:`~repro.models.compiled_forest.CompiledForest`
    level-synchronous traversal.  Each batch size reports the best of
    ``repeats`` per-call times and a bitwise-equality verdict;
    ``min_speedup`` (the smallest ratio across batch sizes) is what CI
    gates at ≥ 3×.

    The default batch sizes (1, 8, 64) cover the serving regime — client
    batches of 64, and the natural batches of single requests that
    :class:`~repro.serve.batcher.MicroBatcher` dispatches, one request
    each when traffic is light — which is where python dispatch
    dominates and the compiled path pays off.  For offline thousand-row scoring the
    legacy index-partitioning walk is already near memory bandwidth and
    the compiled gathers win little (pass ``--batch-sizes`` to measure);
    the report records this scope in ``batch_sizes_note``.
    """
    from repro.models import GradientBoostingRegressor
    from repro.workloads import generate_conjunctive_workload

    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if smoke:
        rows = min(rows, 1_000)
        queries = min(queries, 512)
        trees = min(trees, 30)
        repeats = min(repeats, 3)
    table = generate_forest(rows=rows, seed=seed)
    # 400 training queries even in smoke mode: fewer leaves the default
    # min_samples_leaf no valid split and every tree degenerates to a
    # stump, which would benchmark an unrealistically shallow forest.
    train = generate_conjunctive_workload(table, 400, seed=seed + 1)
    featurizer = ConjunctiveEncoding(table, max_partitions=partitions)
    X_train = featurizer.featurize_batch(train.queries)
    y_train = np.log(np.maximum(train.cardinalities, 1.0))
    # No early stopping: the report's tree count must match the config.
    model = GradientBoostingRegressor(n_estimators=trees,
                                      early_stopping_rounds=None,
                                      random_state=seed).fit(X_train, y_train)
    X = featurizer.featurize_batch(
        generate_conjunctive_queries(table, queries, seed=seed))
    forest = model.compiled

    cases: list[dict] = []
    for batch_size in sorted(set(int(b) for b in batch_sizes)):
        batch_size = min(batch_size, X.shape[0])
        features = X[:batch_size]
        # Enough calls per sample that the fast path stays measurable.
        calls = max(1, min(64, X.shape[0] // batch_size))
        legacy_reference = _legacy_forest_predict(model, features)
        compiled_reference = forest.predict(features)
        identical = bool(np.array_equal(legacy_reference,
                                        compiled_reference))
        legacy_seconds = float("inf")
        compiled_seconds = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                _legacy_forest_predict(model, features)
            legacy_seconds = min(legacy_seconds,
                                 (time.perf_counter() - start) / calls)
            start = time.perf_counter()
            for _ in range(calls):
                forest.predict(features)
            compiled_seconds = min(compiled_seconds,
                                   (time.perf_counter() - start) / calls)
        cases.append({
            "batch_size": batch_size,
            "calls_per_sample": calls,
            "legacy_seconds": legacy_seconds,
            "compiled_seconds": compiled_seconds,
            "speedup": (legacy_seconds / compiled_seconds
                        if compiled_seconds > 0 else float("inf")),
            "identical": identical,
        })

    return {
        "benchmark": "predict",
        "config": {
            "rows": rows,
            "queries": queries,
            "trees": trees,
            "partitions": partitions,
            "seed": seed,
            "smoke": smoke,
            "repeats": repeats,
            "batch_sizes": [case["batch_size"] for case in cases],
        },
        "batch_sizes_note": (
            "defaults cover the serving regime (client batches of 64, "
            "natural micro-batches of single requests); larger offline "
            "batches are not gated — measure them with --batch-sizes"),
        "n_trees": forest.n_trees,
        "max_nodes": forest.max_nodes,
        "max_depth": forest.max_depth,
        "feature_length": featurizer.feature_length,
        "cases": cases,
        "all_identical": all(case["identical"] for case in cases),
        "min_speedup": min(case["speedup"] for case in cases),
    }


def _git_sha() -> str | None:
    """HEAD of the checkout this module runs from; None outside git."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"],
                              cwd=Path(__file__).resolve().parent,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def write_report(report: dict, path: Path) -> None:
    """Write a benchmark report as indented JSON under a ``header``.

    The header is what makes two reports comparable: ``cpu_count``,
    the python and numpy versions, the git sha of the checkout, and the
    run's ``smoke`` flag (the same fields as ``perfbench``'s header).
    """
    header = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "smoke": bool(report.get("config", {}).get("smoke", False)),
    }
    path.write_text(json.dumps({"header": header, **report}, indent=2)
                    + "\n", encoding="utf-8")
