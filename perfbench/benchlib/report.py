"""Metric names and units, the report header, and the result line."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

__all__ = ["UNITS", "header", "result_line", "render"]

#: Unit of every metric the benchmark can report.  ``BENCHMARK.json``
#: lists the ones the driver tracks; the rest are printed for readers.
UNITS = {
    # end to end
    "setup_s": "s", "qps": "queries/s", "p50_ms": "ms", "p99_ms": "ms",
    "max_rate_qps": "ops/s", "feedback_p50_ms": "ms",
    "feedback_p99_ms": "ms", "fail_ratio": "ratio", "qerror_p50": "ratio",
    "qerror_p99": "ratio", "server_rss_mb": "MB",
    # per layer
    "loadgen.late_p99_ms": "ms", "loadgen.ops_attempted": "count",
    "loadgen.ops_failed": "count",
    "client.request_ms": "ms", "client.json_encode_us": "us",
    "client.json_decode_us": "us",
    "http.overhead_ms": "ms",
    "server.request_ms": "ms", "server.self_ms": "ms",
    "server.rejected_total": "count", "server.errors_total": "count",
    "server.feedback_ms": "ms",
    "parser.fingerprint_us": "us", "parser.parse_us": "us",
    "parser.bind_us": "us", "parser.template_us": "us",
    "parser.full_parses": "count",
    "cache.estimate_hit_ratio": "ratio", "cache.parse_hit_ratio": "ratio",
    "cache.plan_hit_ratio": "ratio", "cache.parse_evictions": "count",
    "cache.plan_evictions": "count",
    "batcher.batch_size_mean": "queries", "batcher.collect_ms": "ms",
    "batcher.execute_ms": "ms", "batcher.batches_total": "count",
    "fused.compile_ms": "ms", "fused.shapes_per_batch": "count",
    "fused.encode_us_per_query": "us", "fused.predict_us_per_query": "us",
    "obs.event_record_us": "us", "obs.window_observe_us": "us",
    "router.overhead_ms": "ms", "router.groups_per_batch": "count",
    "router.failovers_total": "count", "workers.restarts_total": "count",
    "setup.data_s": "s", "setup.labels_s": "s", "setup.fit_s": "s",
    "setup.publish_s": "s", "setup.boot_s": "s", "setup.warmup_s": "s",
    "trace.overhead_pct": "%", "ledger.residual_pct": "%",
}


def _git_sha(root: Path) -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest(root: Path) -> str:
    """sha256 over ``src/**/*.py`` (the checkout may not be a git repo)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def header(root: Path, workload: str, seed: int, smoke: bool, trace: bool,
           seconds: float) -> dict:
    """What makes two reports comparable: host, versions, code, inputs."""
    return {
        "workload": workload, "seed": seed, "smoke": smoke,
        "trace": trace, "seconds": seconds,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(root),
        "source_sha256": _source_digest(root),
        "server_flags": [],
    }


def render(metrics: dict[str, float], notes: dict[str, str]) -> str:
    """Aligned ``name value unit`` table, one metric per line."""
    lines = []
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"  {name:28s} {value:>14.6g} {UNITS[name]:10s}{note}")
    return "\n".join(lines)


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, float], names: list[str]) -> str:
    """The driver's result object over exactly the metrics in ``names``."""
    chosen = {}
    for name in names:
        value = float(metrics[name])
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite ({value})")
        chosen[name] = {"value": value, "unit": UNITS[name]}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": chosen})
