"""Featurization throughput: per-query loop vs one batch call.

``featurize(q)`` is the one-query batch of each QFT's compile → encode
pipeline, so this times a per-query ``featurize`` loop against one
``featurize_batch`` call on the same workloads (see ``repro.bench``),
asserts the two produce bitwise-identical matrices (batching is
row-independent), and records what batching a workload is worth.  The
same measurement backs the ``repro bench featurize`` CLI subcommand and
the committed ``BENCH_featurize.json``.
"""

from __future__ import annotations

from repro.bench import run_featurize_bench
from repro.experiments.common import ExperimentResult


def test_featurize_throughput(scale, record):
    report = run_featurize_bench(rows=scale.forest_rows,
                                 queries=scale.featurize_queries,
                                 partitions=scale.partitions)
    rows = [
        {
            "qft": case["featurizer"],
            "workload": case["workload"],
            "queries": case["n_queries"],
            "per-query (s)": f"{case['scalar_seconds']:.3f}",
            "batch (s)": f"{case['batch_seconds']:.3f}",
            "speedup": f"{case['speedup']:.2f}x",
            "identical": case["identical"],
        }
        for case in report["cases"]
    ]
    record(ExperimentResult(
        experiment="featurize_throughput",
        paper_artifact="featurization cost (Section 5 'costs of the "
                       "query featurization')",
        rows=rows,
        notes="The per-query loop runs one-query batches and must match "
              "one featurize_batch call bitwise; the speedup column is "
              "the per-query/batch runtime ratio.",
    ))
    assert report["all_identical"], (
        "per-query featurize diverged from featurize_batch")
    assert report["min_speedup"] >= 1.0, (
        f"batch slower than the per-query loop: min speedup "
        f"{report['min_speedup']:.2f}x"
    )
