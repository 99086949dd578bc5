"""Every workload end to end in smoke mode, through the real command."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchlib.report import UNITS

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Report lines each workload must print beyond BENCHMARK.json's lists.
EXTRA = {
    (False, "single-open"): ["max_rate_qps", "feedback_p50_ms",
                             "feedback_p99_ms", "fail_ratio"],
    (True, "single-open"): ["batcher.batch_size_mean", "batcher.collect_ms",
                            "batcher.execute_ms", "batcher.batches_total",
                            "server.feedback_ms", "http.overhead_ms"],
    (True, "param-batch64"): ["http.overhead_ms"],
    (True, "mixed-adhoc16"): ["http.overhead_ms"],
    (True, "fleet-2w"): ["router.overhead_ms", "router.groups_per_batch",
                         "router.failovers_total", "workers.restarts_total"],
}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_smoke(workload: str, trace: bool):
    begin = time.monotonic()
    done = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(int(trace)), "--smoke")
    assert done.returncode == 0, done.stderr[-3000:]
    assert time.monotonic() - begin < 60
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    tracked = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in tracked]
    for metric in tracked:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    printed = {line.split()[0]: line.split()[2] for line in lines[2:-2]}
    for name in [m["name"] for m in tracked] + EXTRA.get((trace, workload),
                                                          []):
        assert printed.get(name) == UNITS[name], name
    if trace:
        out = ROOT / ".bench_out" / f"{workload}-s3-t1"
        stitched = json.loads((out / "stitched.json").read_text())
        names = {event.get("name") for event in stitched["traceEvents"]}
        assert {"serve.client.request", "serve.request"} <= names


def test_same_seed_repeats_qerror_exactly():
    report = ROOT / ".bench_out" / "mixed-adhoc16-s5-t0" / "report.json"
    results = []
    for _ in range(2):
        done = _run("--workload", "mixed-adhoc16", "--seed", "5",
                    "--seconds", "1", "--trace", "0", "--smoke")
        assert done.returncode == 0, done.stderr[-3000:]
        results.append(json.loads(report.read_text())["metrics"])
    for name in ("qerror_p50", "qerror_p99"):
        assert results[0][name] == results[1][name]


def test_fails_without_the_repository(tmp_path: Path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "param-batch64", "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
