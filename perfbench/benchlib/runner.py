"""One benchmark run: set up, drive, check, stop, and report.

A run is a few *segments*.  Each segment performs the whole set-up
(table, labels, fit, publish, boot until healthy, warm-up), measures,
and stops its server.  Untraced runs (``--trace 0``) use three segments:
``setup_s`` is the median of three set-ups and ``qps`` the median over
the 1-second windows of all three.  Traced runs use one untraced and
one traced segment, whose ``qps`` difference is the tracing overhead.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np

from repro import obs
from repro.obs.export import read_spans_jsonl, span_records, write_spans_jsonl
from repro.persistence import load_estimator
from repro.serve import ServeClient

from benchlib import ledger
from benchlib.loadgen import (
    Checker,
    Op,
    closed_loop,
    open_loop,
    open_schedule,
    percentile,
    search_max_rate,
)
from benchlib.procs import LifecycleError, ServerProcess
from benchlib.report import header, render, result_line
from benchlib.workloads import (
    WORKLOADS,
    Sizes,
    make_pool,
    make_table,
    publish,
    reference_estimates,
    train,
)

__all__ = ["MIN_TAIL_REQUESTS", "REFERENCE_RATE", "ROOT", "Run",
           "WINDOW_SECONDS", "run"]

ROOT = Path(__file__).resolve().parents[2]

#: Open-loop reference rate for ``single-open``'s p50/p99/qps (ops/s).
REFERENCE_RATE = 300.0

#: Width of the windows whose median ``qps`` reports.
WINDOW_SECONDS = 1.0

#: Requests that give a p99 with at least 10 samples beyond it.
MIN_TAIL_REQUESTS = 1_000


def _median(values) -> float:
    return float(np.median(values)) if len(values) else float("nan")


def _rel(path: Path) -> str:
    return path.relative_to(ROOT).as_posix()


class Run:
    """State of one ``perfbench/run.py`` invocation."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, smoke: bool) -> None:
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.sizes = Sizes.for_mode(smoke)
        self.work = ROOT / ".bench_out" / f"{workload}-s{seed}-t{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
                    "PYTHONUNBUFFERED": "1"}
        self.header = header(ROOT, workload, seed, smoke, trace, seconds)
        self.setups: list[dict] = []
        self.all_ops: list[Op] = []
        self.checker: Checker | None = None
        self.artifact = self.work / "reference.npz"
        self.pool = make_pool(self.workload, make_table(self.sizes), seed,
                              self.sizes)
        size = self.workload.batch
        self.requests = [np.arange(i, min(i + size, len(self.pool.sqls)))
                         for i in range(0, len(self.pool.sqls), size)]
        # Batch workloads warm up with 4 requests (256 statements of the
        # param pool: every template 4 times); singles with one request
        # per template.
        self.warm_requests = 2 if smoke else (4 if size > 1 else 64)

    # ------------------------------------------------------------------
    # set-up and lifecycle
    # ------------------------------------------------------------------

    def _target(self, index: int) -> Path:
        return self.work / (f"registry-{index}" if self.workload.fleet
                            else f"model-{index}.npz")

    @contextmanager
    def segment(self, index: int, trace_path: Path | None = None
                ) -> Iterator[ServerProcess]:
        """One timed set-up; yields the live, warmed server and stops it
        cleanly afterwards (killing it if the body raised)."""
        timings: dict[str, float] = {}
        start = time.perf_counter()
        table = make_table(self.sizes)
        timings["data"] = time.perf_counter() - start
        estimator = train(self.workload, table, self.sizes, timings)
        target = self._target(index)
        start = time.perf_counter()
        artifact = publish(self.workload, estimator, target)
        timings["publish"] = time.perf_counter() - start
        if self.checker is None:
            # Not set-up time: the benchmark's own reference answers.
            self.checker = Checker(reference_estimates(artifact, self.pool),
                                   self.pool.truth)
            shutil.copyfile(artifact, self.artifact)
        start = time.perf_counter()
        server = self._boot(target, trace_path)
        timings["boot"] = time.perf_counter() - start
        try:
            start = time.perf_counter()
            self._warm_up(server.url)
            timings["warmup"] = time.perf_counter() - start
            self.setups.append(timings)
            yield server
        except BaseException:
            server.kill()
            raise
        server.stop()
        if target.is_dir():
            shutil.rmtree(target)
        else:
            target.unlink()
        if target.exists():
            raise LifecycleError(f"temporary {target} survived the run")

    def _boot(self, target: Path, trace_path: Path | None) -> ServerProcess:
        python = [sys.executable, "-m", "repro"]
        if self.workload.fleet:
            flags = ["fleet", "serve", "--registry", _rel(target),
                     "--model", "bench", "--workers", "2",
                     "--host", "127.0.0.1", "--port", "0"]
            ready, stopped = r"fleet router on (http://\S+)", "fleet stopped"
        else:
            flags = ["serve", "--artifact", _rel(target),
                     "--host", "127.0.0.1", "--port", "0"]
            if trace_path is not None:
                flags += ["--trace", _rel(trace_path)]
            ready, stopped = r"serving on (http://\S+)", "server stopped"
        self.header["server_flags"].append(flags)
        return ServerProcess(python + flags, ROOT, self.env, ready,
                             stopped).start()

    def _warm_up(self, url: str) -> None:
        """First requests of the run, sequentially: fill caches, finish
        lazy set-up.  Checked and counted like every other answer."""
        with ServeClient(url, timeout=30.0) as client:
            for k in range(self.warm_requests):
                indices = self.requests[k % len(self.requests)]
                begin = time.perf_counter_ns()
                try:
                    if self.workload.batch == 1:
                        served = [client.estimate(
                            self.pool.sqls[indices[0]])["estimate"]]
                    else:
                        served = client.estimate_batch(
                            [self.pool.sqls[i] for i in indices])
                    ok = self.checker.estimates(indices, served)
                except (RuntimeError, ValueError, KeyError, TypeError):
                    ok = False
                end = time.perf_counter_ns()
                self.all_ops.append(Op("warmup", k, 0, begin, begin, end, ok))

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------

    def measure(self, url: str, seconds: float, segment: int,
                min_requests: int = 0) -> list[Op]:
        """One segment's load; returns its measured ops.

        Closed loops run on past ``seconds`` until ``min_requests`` were
        sent (at most 3x), so pooled tail percentiles have enough samples.
        """
        if self.workload.open_loop:
            rng = np.random.default_rng([self.seed, segment])
            plan, offsets = open_schedule(rng, REFERENCE_RATE, seconds,
                                          len(self.pool.sqls))
            ops, _ = open_loop(url, self.pool.sqls, plan, offsets,
                               self.checker)
        else:
            ops = closed_loop(url, self.pool.sqls, self.requests,
                              self.checker, seconds, min_requests,
                              3 * seconds, offset=self.warm_requests)
        self.all_ops.extend(ops)
        return ops

    def ladder(self, url: str, seconds: float) -> tuple[float, list[dict]]:
        """Bisect the fixed rate ladder; every probe counts as attempted."""
        probe_seconds = max(0.25, seconds / 6)
        count = [0]

        def probe(rate: float):
            count[0] += 1
            rng = np.random.default_rng([self.seed, 100 + count[0]])
            plan, offsets = open_schedule(rng, rate, probe_seconds,
                                          len(self.pool.sqls))
            return open_loop(url, self.pool.sqls, plan, offsets,
                             self.checker)

        rate, probes, ops = search_max_rate(probe)
        self.all_ops.extend(ops)
        return rate, probes

    def _answered(self, op: Op) -> int:
        if not op.ok or op.kind == "feedback":
            return 0
        return len(self.requests[op.request]) if op.kind == "batch" else 1

    def qps(self, ops: list[Op]) -> float:
        """Queries answered correctly per second of the segment."""
        wall = (max(op.end_ns for op in ops)
                - min(op.due_ns for op in ops)) / 1e9
        return sum(self._answered(op) for op in ops) / wall

    def window_qps(self, ops: list[Op]) -> list[float]:
        """``qps`` of each whole :data:`WINDOW_SECONDS` window of the
        segment, by answer time; their median shrugs off short stalls."""
        begin = min(op.due_ns for op in ops)
        width = int(WINDOW_SECONDS * 1e9)
        counts = [0] * ((max(op.end_ns for op in ops) - begin) // width)
        for op in ops:
            slot = (op.end_ns - begin) // width
            if slot < len(counts):
                counts[slot] += self._answered(op)
        return [count / WINDOW_SECONDS for count in counts]

    # ------------------------------------------------------------------
    # the two kinds of run
    # ------------------------------------------------------------------

    def end_to_end(self) -> tuple[dict, dict]:
        segments = 1 if self.smoke else 3
        ladder_share = 0.4 if self.workload.open_loop else 0.0
        seg_seconds = self.seconds * (1.0 - ladder_share) / segments
        need = 0 if self.smoke else MIN_TAIL_REQUESTS // segments
        measured: list[Op] = []
        qps, p50, rss = [], [], []
        rate, probes = float("nan"), []
        for index in range(segments):
            with self.segment(index) as server:
                ops = self.measure(server.url, seg_seconds, index, need)
                measured.extend(ops)
                qps.extend(self.window_qps(ops) or [self.qps(ops)])
                p50.append(percentile([op.latency_ms for op in ops
                                       if op.kind != "feedback"], 50))
                if self.workload.open_loop and index == segments - 1:
                    rate, probes = self.ladder(server.url,
                                               self.seconds * ladder_share)
                rss.append(server.rss_mb())
        latencies = [op.latency_ms for op in measured
                     if op.kind != "feedback"]
        metrics = {
            "setup_s": _median([sum(t.values()) for t in self.setups]),
            "qps": _median(qps),
            "p50_ms": _median(p50),
            "p99_ms": percentile(latencies, 99),
            "server_rss_mb": _median(rss),
        }
        metrics.update(self._qerrors(measured))
        notes = {
            "setup_s": "median of set-ups " + ", ".join(
                f"{sum(t.values()):.3f}" for t in self.setups),
            "qps": f"median of {len(qps)} windows of {WINDOW_SECONDS:g}s, "
                   "quartiles " + ", ".join(
                       f"{q:.1f}" for q in np.percentile(qps, [25, 75])),
            "p50_ms": "median of segment p50s " + ", ".join(
                f"{v:.3f}" for v in p50),
            "p99_ms": self._tail_note(latencies),
            "server_rss_mb": "peak VmHWM summed over the server's "
                             "processes, median of segments",
        }
        if self.workload.open_loop:
            feedback = [op.latency_ms for op in measured
                        if op.kind == "feedback"]
            metrics["max_rate_qps"] = rate
            metrics["feedback_p50_ms"] = percentile(feedback, 50)
            metrics["feedback_p99_ms"] = percentile(feedback, 99)
            notes["feedback_p99_ms"] = self._tail_note(feedback)
            notes["max_rate_qps"] = "probes " + ", ".join(
                f"{p['rate']:g}:{'pass' if p['passed'] else 'fail'}"
                f"(p99 {p['p99_ms']:.2f}ms, n={p['ops']})" for p in probes)
            notes["qps"] += f", at {REFERENCE_RATE:g} ops/s offered"
        failed = sum(not op.ok for op in self.all_ops)
        metrics["fail_ratio"] = failed / len(self.all_ops)
        return metrics, notes

    @staticmethod
    def _tail_note(latencies: list[float]) -> str:
        beyond = int(sum(1 for v in latencies
                         if v > percentile(latencies, 99)))
        return f"n={len(latencies)}, {beyond} beyond p99"

    def _qerrors(self, ops: list[Op]) -> dict[str, float]:
        """q-error over the distinct pool queries served correctly."""
        served: set[int] = set()
        for op in ops:
            if op.ok and op.kind != "feedback":
                served.update(self.requests[op.request].tolist()
                              if op.kind == "batch" else [op.request])
        index = np.fromiter(sorted(served), dtype=np.int64)
        truth = np.maximum(self.pool.truth[index], 1.0)
        estimate = np.maximum(self.checker.reference[index], 1.0)
        errors = np.maximum(truth / estimate, estimate / truth)
        return {"qerror_p50": percentile(errors, 50),
                "qerror_p99": percentile(errors, 99)}

    def per_layer(self) -> tuple[dict, dict]:
        half = self.seconds / 2
        with self.segment(0) as server:
            plain = self.measure(server.url, half, 0)

        server_trace = self.work / "server.jsonl"
        tracer = obs.Tracer(enabled=True)
        fleet: dict = {}
        with self.segment(1, None if self.workload.fleet
                          else server_trace) as server:
            before = self._counters(server.url)
            with obs.use_tracer(tracer):
                traced = self.measure(server.url, half, 1)
            after = self._counters(server.url)
            if self.workload.fleet:
                fleet = self._fleet_layers(server, traced)

        client = span_records(tracer.finished())
        metrics = {f"setup.{phase}_s": _median([t[phase]
                                                for t in self.setups])
                   for phase in self.setups[0]}
        failed = sum(not op.ok for op in self.all_ops)
        metrics.update({
            "loadgen.late_p99_ms": percentile(
                [op.late_ms for op in plain + traced], 99),
            "loadgen.ops_attempted": float(len(self.all_ops)),
            "loadgen.ops_failed": float(failed),
            "client.request_ms": float(np.mean(
                [r["duration_ns"] / 1e6 for r in client
                 if r["name"] == "serve.client.request"])),
        })
        metrics.update(ledger.counter_layers(before, after))
        replay_tracer = obs.Tracer(enabled=True)
        with obs.use_tracer(replay_tracer):
            metrics.update(self._replays(traced))
        if self.workload.fleet:
            worker_ids = fleet.pop("worker_ids")
            metrics.update(fleet)
            server_spans = ledger.fleet_replay(
                lambda: load_estimator(self.artifact), worker_ids,
                [[self.pool.sqls[i] for i in self.requests[op.request]]
                 for op in traced[:64]])
            write_spans_jsonl(server_spans, self.work / "fleet-replay.jsonl")
            server_trace = self.work / "fleet-replay.jsonl"
        else:
            start = min(op.due_ns for op in traced)
            end = max(op.end_ns for op in traced)
            server_spans = [r for r in read_spans_jsonl(server_trace)
                            if start <= r["start_ns"] <= end]
        metrics.update(ledger.span_layers(server_spans, client))
        metrics["ledger.residual_pct"] = ledger.residual_pct(
            traced, client, metrics["client.json_encode_us"],
            metrics["client.json_decode_us"])
        if self.workload.open_loop:
            untraced = percentile([op.latency_ms for op in plain
                                   if op.kind == "estimate"], 50)
            with_trace = percentile([op.latency_ms for op in traced
                                     if op.kind == "estimate"], 50)
            metrics["trace.overhead_pct"] = 100 * (with_trace / untraced - 1)
        else:
            metrics["trace.overhead_pct"] = 100 * (
                1 - self.qps(traced) / self.qps(plain))
        stitched = self._stitch(client + span_records(
            replay_tracer.finished()), server_trace)
        notes = {"trace.overhead_pct": (
                     "traced vs untraced p50" if self.workload.open_loop
                     else "traced vs untraced qps"),
                 "ledger.residual_pct": f"stitched trace: {stitched}"}
        if self.workload.fleet:
            notes["server.request_ms"] = ("fleet workers cannot trace; "
                                          "in-process replay of their "
                                          "sub-batches")
        return metrics, notes

    def _replays(self, traced: list[Op]) -> dict[str, float]:
        """Replay the traced segment's inputs through public functions."""
        main = [op for op in traced if op.kind != "feedback"]
        sqls, payloads, responses, single, estimates = [], [], [], [], []
        for op in main:
            if op.kind == "batch":
                indices = self.requests[op.request]
                batch = [self.pool.sqls[i] for i in indices]
                values = self.checker.reference[indices]
                sqls.extend(batch)
                payloads.append({"sql": batch})
                responses.append({"estimates": values.tolist()})
                single.append(None)
                estimates.append(float(values[0]))
            else:
                sql = self.pool.sqls[op.request]
                value = float(self.checker.reference[op.request])
                sqls.append(sql)
                payloads.append({"sql": sql})
                responses.append({"estimate": value, "cached": False})
                single.append(sql)
                estimates.append(value)
        layers = ledger.parser_replay(sqls)
        layers.update(ledger.json_replay(payloads, responses))
        layers.update(ledger.obs_replay(main, single, estimates))
        return layers

    def _fleet_layers(self, server: ServerProcess, traced: list[Op]
                      ) -> dict:
        """Router layers, probed while the fleet is still up."""
        workers = dict(re.findall(r"worker (\S+): (http://\S+)",
                                  "\n".join(server.lines)))
        batches = [[self.pool.sqls[i] for i in self.requests[op.request]]
                   for op in traced]
        owners = [set(ledger.fleet_owners(sorted(workers), batch))
                  for batch in batches]
        overhead, answers = ledger.router_probe(server.url, workers,
                                                batches[:24])
        for op, (routed, direct) in zip(traced[:24], answers):
            indices = self.requests[op.request]
            ok = (self.checker.estimates(indices, routed)
                  and self.checker.estimates(indices, direct))
            self.all_ops.append(Op("probe", op.request, 0, 0, 0, 0, ok))
        counters = self._counters(server.url)
        return {"worker_ids": sorted(workers),
                "router.overhead_ms": overhead,
                "router.groups_per_batch": float(np.mean(
                    [len(o) for o in owners])),
                "router.failovers_total": counters.get(
                    "fleet.failovers_total", 0.0),
                "workers.restarts_total": counters.get(
                    "fleet.worker.restarts_total", 0.0)}

    @staticmethod
    def _counters(url: str) -> dict[str, float]:
        with ServeClient(url, timeout=30.0) as client:
            return ledger.counter_totals(json.loads(client.metrics()))

    def _stitch(self, client: list[dict], server_trace: Path) -> str:
        """Write the client span log and stitch it with the server's
        through ``repro obs stitch``; returns the stitched trace path."""
        client_path = self.work / "client.jsonl"
        write_spans_jsonl(client, client_path)
        output = self.work / "stitched.json"
        subprocess.run([sys.executable, "-m", "repro", "obs", "stitch",
                        _rel(client_path), _rel(server_trace),
                        "--output", _rel(output)],
                       cwd=ROOT, env=self.env, check=True,
                       capture_output=True, timeout=120)
        return _rel(output)


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool) -> int:
    """Run one workload; print the report and the result line."""
    names = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench = Run(workload, seed, seconds, trace, smoke)
    try:
        metrics, notes = bench.per_layer() if trace else bench.end_to_end()
    except LifecycleError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    failed = sum(not op.ok for op in bench.all_ops)
    report_path = bench.work / "report.json"
    report_path.write_text(json.dumps(
        {"header": bench.header, "metrics": metrics, "notes": notes,
         "setups": bench.setups}, indent=2) + "\n")
    print("header: " + json.dumps(bench.header))
    print(f"{workload}: {'per-layer (traced)' if trace else 'end to end'}, "
          f"{len(bench.all_ops)} ops attempted, {failed} failed")
    print(render(metrics, notes))
    print(f"report: {_rel(report_path)}")
    wanted = [m["name"] for m in names["per_layer" if trace
                                       else "end_to_end"]]
    missing = [name for name in wanted
               if not math.isfinite(metrics.get(name, math.nan))]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 4
    print(result_line(failed == 0, len(bench.all_ops), failed, metrics,
                      wanted))
    return 0 if failed == 0 else 1
