"""Micro-benchmarks: featurization throughput, lint run, obs overhead.

:func:`run_featurize_bench` measures what batching a workload is worth:
every case times a per-query ``featurize`` loop (one-query batches)
against one ``featurize_batch`` call over the same workload, and
verifies the two matrices are identical — i.e. that batching is
row-independent — before reporting a speedup.  Pass timings come from
``bench.scalar_pass`` / ``bench.batch_pass`` spans (under
:func:`repro.obs.ensure_tracing`), so a traced benchmark run exports the
same numbers it reports.

:func:`run_lint_bench` times full-tree lint runs, best of ``repeats``,
and splits the best run into the engine's stage spans (committed as
``BENCH_lint.json``).

:func:`run_obs_bench` guards the observability layer itself: it times
the conjunctive batch-featurize path uninstrumented (compile + encode
called directly), with tracing disabled (the no-op span path), and with
tracing enabled, and reports the overhead percentages (committed as
``BENCH_obs.json``; the disabled-mode number is gated at < 3% in CI).

:func:`run_serve_bench` measures the serving stack end to end: an
in-process HTTP server (estimate cache off) under a closed-loop
multi-threaded client fleet, reporting p50/p95 latency and
queries/sec at client batch sizes 1, 8, and 64, verifying the served
estimates bitwise against ``estimate_batch`` on the parsed queries,
and embedding the forest-inference microbenchmark plus parse-cache
statistics (committed as ``BENCH_serve.json``).

:func:`run_predict_bench` isolates forest inference: the legacy
per-tree python predict loop against the packed
:class:`~repro.models.compiled_forest.CompiledForest` on identical
feature matrices, asserting bitwise-equal outputs (CI gates the
compiled path at ≥ 3× across all measured batch sizes).

This module computes and returns results only; printing and process exit
codes live in :mod:`repro.cli` (``repro bench featurize`` / ``repro
bench lint`` / ``repro bench obs`` / ``repro bench serve``), and the
pytest-driven benchmark lives in ``benchmarks/test_featurize_throughput.py``.

Raw ``time.perf_counter`` use is deliberate here (and exempt from lint
rule RPR108): interleaved best-of-N timing needs the clock directly,
and the obs benchmark must time the *uninstrumented* path without
touching the tracer it is measuring.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass, replace
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
from repro.sql.ast import And, BoolExpr, Or, Query, SimplePredicate
from repro.workloads import generate_conjunctive_queries, generate_mixed_queries

__all__ = ["BenchCase", "run_featurize_bench", "run_fleet_bench",
           "run_lint_bench", "run_obs_bench", "run_predict_bench",
           "run_serve_bench", "write_report"]

#: (featurizer label, workload label) cases the benchmark measures.
_CASES = (
    ("simple", "conjunctive"),
    ("range", "conjunctive"),
    ("conjunctive", "conjunctive"),
    ("complex", "conjunctive"),
    ("complex", "mixed"),
)


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


def run_featurize_bench(rows: int = 10_000, queries: int = 10_000,
                        partitions: int = config.DEFAULT_PARTITIONS,
                        seed: int = config.DEFAULT_SEED,
                        smoke: bool = False, repeats: int = 3) -> dict:
    """Benchmark per-query vs batch featurization; return the report dict.

    Each case runs one untimed warm-up pass per path (whose output also
    feeds the bitwise-equality check), then reports the best of
    ``repeats`` timed runs.  ``smoke`` shrinks the workload to a
    seconds-long configuration for CI: the equivalence checks still run
    on real queries, only the timing sample is small.
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
        "all_identical": all(case.identical for case in cases),
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


def run_obs_bench(rows: int = 10_000, queries: int = 10_000,
                  partitions: int = config.DEFAULT_PARTITIONS,
                  seed: int = config.DEFAULT_SEED,
                  smoke: bool = False, repeats: int = 7) -> dict:
    """Measure the observability layer's overhead on batch featurization.

    Times the conjunctive-QFT batch path over the conjunctive workload
    three ways, interleaved, best of ``repeats``:

    * **baseline** — compile + encode called directly, bypassing the
      instrumented ``featurize_batch`` wrapper entirely;
    * **disabled** — ``featurize_batch`` with tracing off (no-op spans
      plus the always-on counters), the production default;
    * **enabled** — ``featurize_batch`` with tracing on (live spans).

    The report's ``disabled_overhead_pct`` is the number the CI gate
    holds under 3%: instrumentation must cost nothing when nobody is
    looking.

    Two telemetry hot-path legs ride along (best of the same
    ``repeats``), since PR 9 put both on the serving request path:

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

    def uninstrumented():
        batch = featurizer.compile_batch(workload)
        return featurizer._featurize_compiled(batch)

    # Untimed warm-up of every path (page-faults, lazy allocations).
    reference = uninstrumented()
    with obs.use_tracer(obs.Tracer(enabled=False)):
        instrumented = featurizer.featurize_batch(workload)
    if not np.array_equal(reference, instrumented):
        raise RuntimeError(
            "instrumented featurize_batch diverged from the direct "
            "compile+encode path")

    baseline_seconds = float("inf")
    disabled_seconds = float("inf")
    enabled_seconds = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        uninstrumented()
        baseline_seconds = min(baseline_seconds,
                               time.perf_counter() - start)

        with obs.use_tracer(obs.Tracer(enabled=False)):
            start = time.perf_counter()
            featurizer.featurize_batch(workload)
            disabled_seconds = min(disabled_seconds,
                                   time.perf_counter() - start)

        with obs.use_tracer(obs.Tracer(enabled=True)):
            start = time.perf_counter()
            featurizer.featurize_batch(workload)
            enabled_seconds = min(enabled_seconds,
                                  time.perf_counter() - start)

    def overhead_pct(seconds: float) -> float:
        if baseline_seconds <= 0.0:
            return 0.0
        return (seconds - baseline_seconds) / baseline_seconds * 100.0

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
        "disabled_seconds": disabled_seconds,
        "enabled_seconds": enabled_seconds,
        "disabled_overhead_pct": overhead_pct(disabled_seconds),
        "enabled_overhead_pct": overhead_pct(enabled_seconds),
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

    The default batch sizes (1, 8, 64) cover the serving regime — the
    micro-batcher dispatches at most
    :class:`~repro.serve.batcher.MicroBatcher`'s ``max_batch_size`` (64)
    queries at once — which is where python dispatch dominates and the
    compiled path pays off.  For offline thousand-row scoring the
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
            "defaults cover the serving regime (micro-batcher dispatches "
            "<= 64 queries); larger offline batches are not gated — "
            "measure them with --batch-sizes"),
        "n_trees": forest.n_trees,
        "max_nodes": forest.max_nodes,
        "max_depth": forest.max_depth,
        "feature_length": featurizer.feature_length,
        "cases": cases,
        "all_identical": all(case["identical"] for case in cases),
        "min_speedup": min(case["speedup"] for case in cases),
    }


def _drive_closed_loop(url: str, payloads: list, threads: int, call) -> dict:
    """Run a closed-loop client fleet over ``payloads``; return timings.

    ``threads`` workers each hold their own :class:`ServeClient`, pull
    the next payload from a shared queue, fire ``call(client, payload)``,
    and record the request's wall latency — the classic closed-loop
    (zero think time) load shape.  Returns per-request latencies plus
    the fleet's wall-clock span.
    """
    import queue as queue_mod

    from repro.serve import ServeClient

    work: queue_mod.SimpleQueue = queue_mod.SimpleQueue()
    for payload in payloads:
        work.put(payload)
    latencies: list[float] = []
    failures: list[str] = []
    lock = threading.Lock()

    def worker() -> None:
        client = ServeClient(url, timeout=60.0)
        local: list[float] = []
        try:
            while True:
                try:
                    payload = work.get_nowait()
                except queue_mod.Empty:
                    break
                start = time.perf_counter()
                try:
                    call(client, payload)
                except Exception as exc:  # repro: ignore[RPR103] — collected and re-raised below
                    with lock:
                        failures.append(str(exc))
                    break
                local.append(time.perf_counter() - start)
        finally:
            client.close()
        with lock:
            latencies.extend(local)

    fleet = [threading.Thread(target=worker, name=f"repro-bench-client-{i}")
             for i in range(threads)]
    start = time.perf_counter()
    for thread in fleet:
        thread.start()
    for thread in fleet:
        thread.join()
    wall_seconds = time.perf_counter() - start
    if failures:
        raise RuntimeError(
            f"{len(failures)} benchmark request(s) failed; first: "
            f"{failures[0]}")
    return {"latencies": latencies, "wall_seconds": wall_seconds}


def _parameterized_queries(table: Table, num_queries: int, templates: int,
                           seed: int) -> list[Query]:
    """A prepared-statement-style workload: few shapes, many literals.

    Draws ``templates`` base conjunctive queries, then emits
    ``num_queries`` instances round-robin over them, each with every
    numeric literal resampled from the predicate's own column domain.
    This is the traffic shape the serving caches target: a dashboard or
    ORM re-issues the same statement text with fresh parameters, so the
    fingerprint (parse cache, which holds each statement's plan)
    repeats while the exact-match estimate cache stays cold.
    Deterministic in ``seed``.
    """
    if not 1 <= templates <= num_queries:
        raise ValueError(
            f"templates must be in [1, {num_queries}], got {templates}")
    bases = generate_conjunctive_queries(table, templates, seed=seed)
    rng = np.random.default_rng(seed + 1)

    def rebind(expr: BoolExpr) -> BoolExpr:
        if isinstance(expr, SimplePredicate):
            values = table.column(expr.attribute).values
            fresh = float(values[int(rng.integers(values.shape[0]))])
            return SimplePredicate(expr.attribute, expr.op, fresh)
        if isinstance(expr, And):
            return And([rebind(child) for child in expr.children])
        if isinstance(expr, Or):
            return Or([rebind(child) for child in expr.children])
        return expr

    return [replace(bases[i % templates], where=rebind(bases[i % templates].where))
            for i in range(num_queries)]


def run_serve_bench(artifact: str | Path | None = None, rows: int = 4_000,
                    queries: int = 2_048, threads: int = 8,
                    partitions: int = config.DEFAULT_PARTITIONS,
                    seed: int = config.DEFAULT_SEED, smoke: bool = False,
                    batch_sizes: Sequence[int] = (1, 8, 64),
                    templates: int = 64) -> dict:
    """Benchmark the serving stack end to end; return the report dict.

    Boots an in-process :class:`~repro.serve.server.EstimationServer`
    on an ephemeral port (estimate cache *disabled*, so every request
    pays the real featurize → predict path), then drives it with a
    closed-loop fleet of ``threads`` HTTP clients at each client-side
    batch size: ``1`` hits ``POST /v1/estimate`` once per query, larger
    sizes pack that many queries into one ``POST /v1/estimate_batch``
    body.  Every case pushes the same workload, so the reported
    ``speedup`` — batched queries/sec over single-request queries/sec at
    the largest batch size — isolates what micro-batching amortises
    (HTTP round trips, request dispatch, per-call featurization
    overhead).

    The workload is *parameterized*: ``templates`` statement shapes,
    each instantiated with fresh literals per query
    (:func:`_parameterized_queries`).  That models prepared-statement /
    dashboard traffic — the regime the parse cache's prepared
    statements exist for — while keeping every query distinct so the
    disabled exact-match cache cannot short-circuit the work.

    With ``artifact`` the persisted estimator at that path answers the
    traffic; otherwise a small GB + conjunctive-QFT estimator is
    trained in-process on the synthetic forest table.

    Before any traffic, the whole workload is estimated through the
    estimator's own ``estimate_batch`` and twice through the service's
    ``estimate_many_sql`` on its SQL — cold (first-seen statements) and
    warm (every statement cached with its plan) — and the report's
    ``fused_identical`` records that all three agree bitwise.  The
    parse cache's hit/miss statistics and the forest-inference
    microbenchmark (:func:`run_predict_bench`, matching tree count)
    are embedded under ``parse_cache`` and ``predict``.
    """
    from repro.estimators import LearnedEstimator
    from repro.models import GradientBoostingRegressor
    from repro.persistence import load_estimator
    from repro.serve import EstimationServer, EstimationService
    from repro.serve.client import ServeClient
    from repro.workloads import generate_conjunctive_workload

    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if smoke:
        rows = min(rows, 1_000)
        queries = min(queries, 256)
        threads = min(threads, 4)
        templates = min(templates, 16)
    templates = min(templates, queries)
    batch_sizes = tuple(sorted(set(int(b) for b in batch_sizes)))
    if batch_sizes[0] != 1:
        raise ValueError("batch_sizes must include 1 (the speedup baseline)")
    table = generate_forest(rows=rows, seed=seed)
    if artifact is not None:
        estimator = load_estimator(artifact)
    else:
        train = generate_conjunctive_workload(
            table, 120 if smoke else 400, seed=seed + 1)
        estimator = LearnedEstimator(
            ConjunctiveEncoding(table, max_partitions=partitions),
            GradientBoostingRegressor(n_estimators=10 if smoke else 30),
        ).fit(train.queries, train.cardinalities)
    workload = _parameterized_queries(table, queries, templates, seed=seed)
    sqls = [query.to_sql() for query in workload]

    # The reference: the per-query compile→encode path on the parsed
    # queries, which the served answers must reproduce bit for bit.
    reference = estimator.estimate_batch(workload)
    service = EstimationService(estimator, max_batch_size=64,
                                max_wait_ms=1.0, cache_size=0,
                                max_inflight=max(64, threads * 4))
    cold = service.estimate_many_sql(sqls)
    warm = service.estimate_many_sql(sqls)
    fused_identical = bool(np.array_equal(reference, cold)
                           and np.array_equal(reference, warm))
    cases: list[dict] = []
    with EstimationServer(service) as server:
        # Untimed warm-up: first-request costs (lazy imports, allocator
        # warm-up) must not pollute the smallest case.
        with ServeClient(server.url, timeout=60.0) as warmup:
            warmup.estimate(sqls[0])
            warmup.estimate_batch(sqls[:8])
        for batch_size in batch_sizes:
            if batch_size == 1:
                payloads: list = list(sqls)
                call = (lambda client, sql: client.estimate(sql))
            else:
                payloads = [sqls[i:i + batch_size]
                            for i in range(0, len(sqls), batch_size)]
                call = (lambda client, batch: client.estimate_batch(batch))
            timing = _drive_closed_loop(server.url, payloads, threads, call)
            latencies_ms = np.asarray(timing["latencies"]) * 1000.0
            wall = timing["wall_seconds"]
            cases.append({
                "batch_size": batch_size,
                "requests": len(payloads),
                "queries": len(sqls),
                "wall_seconds": wall,
                "queries_per_second": (len(sqls) / wall if wall > 0
                                       else float("inf")),
                "p50_latency_ms": float(np.percentile(latencies_ms, 50)),
                "p95_latency_ms": float(np.percentile(latencies_ms, 95)),
            })

    by_size = {case["batch_size"]: case for case in cases}
    single_qps = by_size[1]["queries_per_second"]
    batched_qps = by_size[batch_sizes[-1]]["queries_per_second"]
    raw_model = getattr(getattr(estimator, "model", None), "model", None)
    served_trees = (len(raw_model.trees)
                    if raw_model is not None and hasattr(raw_model, "trees")
                    else 30)
    predict_report = run_predict_bench(
        rows=rows, queries=queries, trees=max(served_trees, 1),
        partitions=partitions, seed=seed, smoke=smoke)
    return {
        "benchmark": "serve",
        "config": {
            "rows": rows,
            "queries": queries,
            "threads": threads,
            "partitions": partitions,
            "seed": seed,
            "smoke": smoke,
            "artifact": str(artifact) if artifact is not None else None,
            "estimator": estimator.name,
            "batch_sizes": list(batch_sizes),
            "workload": "parameterized-conjunctive",
            "templates": templates,
            "max_batch_size": 64,
            "max_wait_ms": 1.0,
            "cache_size": 0,
        },
        "cases": cases,
        "single_qps": single_qps,
        "batched_qps": batched_qps,
        "speedup": (batched_qps / single_qps if single_qps > 0
                    else float("inf")),
        "fused_identical": fused_identical,
        "parse_cache": service.parse_cache.stats(),
        "predict": predict_report,
    }


def run_fleet_bench(artifact: str | Path | None = None, rows: int = 4_000,
                    queries: int = 2_048, threads: int = 8,
                    partitions: int = config.DEFAULT_PARTITIONS,
                    seed: int = config.DEFAULT_SEED, smoke: bool = False,
                    worker_counts: Sequence[int] = (1, 2, 4),
                    templates: int = 64, batch_size: int = 64) -> dict:
    """Benchmark fleet scaling: the same workload at several worker counts.

    Publishes one estimator into a scratch
    :class:`~repro.serve.registry.ModelRegistry`, then for each count in
    ``worker_counts`` boots a real fleet — ``N`` worker *subprocesses*
    (estimate cache off, so every batch pays featurize → predict) behind
    a :class:`~repro.fleet.router.FleetRouter` — and drives it with the
    closed-loop client fleet from the serve benchmark, packing
    ``batch_size`` queries per ``POST /v1/estimate_batch``.  Workers are
    separate processes, so unlike a thread pool this scaling is not
    GIL-bound; the reported ``fleet_speedup`` is aggregate
    queries/second at the largest count over the single-worker rate.

    Worker subprocesses make this benchmark 10-100x heavier to boot
    than the in-process serve bench; the workload itself matches
    :func:`run_serve_bench`'s parameterized-statement shape, so the two
    reports compose (``repro bench serve --workers N`` embeds this one
    under the serve report's ``fleet`` key).
    """
    import shutil

    from repro.estimators import LearnedEstimator
    from repro.fleet import (
        FleetRouter,
        ProcessWorker,
        RouterServer,
        WorkerSupervisor,
    )
    from repro.models import GradientBoostingRegressor
    from repro.persistence import load_estimator
    from repro.serve import ModelRegistry
    from repro.serve.client import ServeClient
    from repro.workloads import generate_conjunctive_workload

    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if smoke:
        rows = min(rows, 1_000)
        queries = min(queries, 256)
        threads = min(threads, 4)
        templates = min(templates, 16)
        worker_counts = tuple(c for c in worker_counts if c <= 2) or (1, 2)
    worker_counts = tuple(sorted(set(int(c) for c in worker_counts)))
    if worker_counts[0] != 1:
        raise ValueError(
            "worker_counts must include 1 (the scaling baseline)")
    templates = min(templates, queries)
    table = generate_forest(rows=rows, seed=seed)
    if artifact is not None:
        estimator = load_estimator(artifact)
    else:
        train = generate_conjunctive_workload(
            table, 120 if smoke else 400, seed=seed + 1)
        # A heavier forest than the serve bench's: per-batch worker
        # compute must dominate the router's forwarding overhead for
        # the scaling measurement to mean anything.
        estimator = LearnedEstimator(
            ConjunctiveEncoding(table, max_partitions=partitions),
            GradientBoostingRegressor(n_estimators=10 if smoke else 60),
        ).fit(train.queries, train.cardinalities)
    workload = _parameterized_queries(table, queries, templates, seed=seed)
    sqls = [query.to_sql() for query in workload]
    payloads = [sqls[i:i + batch_size]
                for i in range(0, len(sqls), batch_size)]

    registry_root = Path(tempfile.mkdtemp(prefix="repro-fleet-bench-"))
    cases: list[dict] = []
    try:
        registry = ModelRegistry(registry_root)
        published = registry.publish(estimator, "bench")
        for count in worker_counts:
            def factory(worker_id: str) -> ProcessWorker:
                return ProcessWorker(
                    worker_id, registry_root, "bench",
                    cache_size=0, max_wait_ms=1.0,
                    max_inflight=max(64, threads * 4),
                    tick_every=0).start()

            supervisor = WorkerSupervisor(factory, poll_interval=0.5)
            supervisor.spawn(count)
            supervisor.start()
            router = FleetRouter(supervisor.pool, supervisor=supervisor)
            server = RouterServer(router)
            server.start()
            try:
                # Untimed warm-up: touch every worker's parse/plan
                # caches and the router's keep-alive sockets.
                with ServeClient(server.url, timeout=60.0) as warmup:
                    for start_at in range(0, min(len(sqls), 256),
                                          batch_size):
                        warmup.estimate_batch(
                            sqls[start_at:start_at + batch_size])
                timing = _drive_closed_loop(
                    server.url, list(payloads), threads,
                    lambda client, batch: client.estimate_batch(batch))
            finally:
                server.stop(drain=True)
                supervisor.stop(drain=True)
            latencies_ms = np.asarray(timing["latencies"]) * 1000.0
            wall = timing["wall_seconds"]
            cases.append({
                "workers": count,
                "requests": len(payloads),
                "queries": len(sqls),
                "wall_seconds": wall,
                "queries_per_second": (len(sqls) / wall if wall > 0
                                       else float("inf")),
                "p50_latency_ms": float(np.percentile(latencies_ms, 50)),
                "p95_latency_ms": float(np.percentile(latencies_ms, 95)),
            })
    finally:
        shutil.rmtree(registry_root, ignore_errors=True)

    by_count = {case["workers"]: case for case in cases}
    single_qps = by_count[1]["queries_per_second"]
    fleet_qps = by_count[worker_counts[-1]]["queries_per_second"]
    cpu_count = os.cpu_count() or 1
    return {
        "benchmark": "fleet",
        "config": {
            "rows": rows,
            "queries": queries,
            "threads": threads,
            "partitions": partitions,
            "seed": seed,
            "smoke": smoke,
            "artifact": str(artifact) if artifact is not None else None,
            "estimator": estimator.name,
            "model": published.label(),
            "worker_counts": list(worker_counts),
            "templates": templates,
            "batch_size": batch_size,
            "workload": "parameterized-conjunctive",
            "cache_size": 0,
            "cpu_count": cpu_count,
        },
        "cases": cases,
        "single_worker_qps": single_qps,
        "fleet_qps": fleet_qps,
        "fleet_speedup": (fleet_qps / single_qps if single_qps > 0
                          else float("inf")),
        # Separate worker processes only add throughput when the host
        # has cores for them; below this bound the measurement is the
        # scheduler's, not the fleet's.
        "cpu_limited": cpu_count < worker_counts[-1],
    }


def write_report(report: dict, path: Path) -> None:
    """Write a benchmark report as indented JSON."""
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
