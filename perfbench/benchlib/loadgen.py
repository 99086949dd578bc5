"""The load generator: closed and open loops over 2 keep-alive connections.

Each operation is one HTTP call through :class:`repro.serve.ServeClient`
with a trace id the generator mints itself, so the traced run can match
every operation to the server spans it caused.  Every answer is checked
(:class:`Checker`); a failed or wrong answer is counted against the
attempts and the loop keeps going.

Times are ``perf_counter_ns`` readings (``CLOCK_MONOTONIC`` on Linux, the
clock the server's spans use too).  An operation's latency runs from its
*due* time: the arrival time in the open loop, and the moment the
connection became free in the closed loop.  ``start - due`` is how late
the generator itself ran.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.metrics import qerror
from repro.serve.client import ServeClient, ServeClientError

__all__ = ["CONNECTIONS", "LADDER", "Checker", "Op", "closed_loop",
           "open_loop", "open_schedule", "probe_passes", "search_max_rate",
           "percentile"]

#: Client connections (and generator threads): the host's 2 cores.
CONNECTIONS = 2

#: Fixed absolute open-loop rates (ops/s), 5% apart, well below to well
#: above the knee of ``repro serve`` on a 2-core host (~640 ops/s).
LADDER = tuple(round(100.0 * 1.05 ** k, 1) for k in range(48))

#: Latency limit a ladder rate must meet at p99.
LIMIT_MS = 10.0

#: Errors a single operation can raise; each counts as one failure.
_OP_ERRORS = (ServeClientError, ValueError, KeyError, TypeError)


@dataclass
class Op:
    """One attempted operation."""

    kind: str           # "batch", "estimate" or "feedback"
    request: int        # request index (batch) or pool index (single)
    trace_id: int
    due_ns: int
    start_ns: int
    end_ns: int
    ok: bool

    @property
    def latency_ms(self) -> float:
        return (self.end_ns - self.due_ns) / 1e6

    @property
    def late_ms(self) -> float:
        return (self.start_ns - self.due_ns) / 1e6


def percentile(values: Sequence[float], q: float) -> float:
    """``q``-th percentile (linear interpolation); NaN when empty."""
    return float(np.percentile(values, q)) if len(values) else float("nan")


def _bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


class Checker:
    """Bitwise check of served answers against in-process references."""

    def __init__(self, reference: np.ndarray, truth: np.ndarray) -> None:
        self.reference = np.asarray(reference, dtype=np.float64)
        self.truth = np.asarray(truth, dtype=np.float64)

    def estimates(self, indices: np.ndarray, served) -> bool:
        """Served estimates are finite and bit-identical to the reference."""
        try:
            values = np.asarray(served, dtype=np.float64)
        except (TypeError, ValueError):
            return False
        return (values.shape == indices.shape
                and bool(np.all(np.isfinite(values)))
                and bool(np.array_equal(_bits(values),
                                        _bits(self.reference[indices]))))

    def feedback(self, index: int, served_estimate: float,
                 response: dict) -> bool:
        """The server's q-error equals the client-side recomputation."""
        expected = qerror(max(self.truth[index], 1.0),
                          max(served_estimate, 1.0))
        try:
            observed = np.asarray([response["qerror"], response["estimate"]],
                                  dtype=np.float64)
        except (KeyError, TypeError, ValueError):
            return False
        wanted = np.asarray([expected, served_estimate], dtype=np.float64)
        return bool(np.array_equal(_bits(observed), _bits(wanted)))


def closed_loop(url: str, sqls: Sequence[str], requests: Sequence[np.ndarray],
                checker: Checker, seconds: float, min_requests: int,
                max_seconds: float, offset: int = 0) -> list[Op]:
    """Closed loop: each connection sends its next batch when the last
    answer is in.

    Requests are taken cyclically from ``requests`` starting at
    ``offset``.  The loop runs for ``seconds``, then on until
    ``min_requests`` were sent (so the tail percentile has enough
    samples), and never beyond ``max_seconds``.
    """
    cursor = itertools.count(offset)
    lock = threading.Lock()
    results: list[list[Op]] = [[] for _ in range(CONNECTIONS)]
    start = time.perf_counter_ns()
    soft_stop = start + int(seconds * 1e9)
    hard_stop = start + int(max_seconds * 1e9)
    sent = [0]

    def connection(slot: int) -> None:
        ops = results[slot]
        with ServeClient(url, timeout=30.0) as client:
            ready = time.perf_counter_ns()
            while True:
                now = time.perf_counter_ns()
                with lock:
                    if now >= hard_stop or (now >= soft_stop
                                            and sent[0] >= min_requests):
                        return
                    sent[0] += 1
                    k = next(cursor) % len(requests)
                indices = requests[k]
                batch = [sqls[i] for i in indices]
                trace_id = obs.mint_trace_id()
                begin = time.perf_counter_ns()
                try:
                    with obs.span("loadgen.op", kind="batch"):
                        served = client.estimate_batch(batch,
                                                       trace_id=trace_id)
                    end = time.perf_counter_ns()
                    ok = checker.estimates(indices, served)
                except _OP_ERRORS:
                    end = time.perf_counter_ns()
                    ok = False
                ops.append(Op("batch", k, trace_id, ready, begin, end, ok))
                ready = time.perf_counter_ns()

    _run_threads(connection)
    return [op for ops in results for op in ops]


def open_schedule(rng: np.random.Generator, rate: float, seconds: float,
                  pool_size: int) -> tuple[list[tuple[str, int]], np.ndarray]:
    """Seeded Poisson arrivals: ``(ops, due offsets in ns)``.

    Every 4th operation is a feedback write; the rest are single
    estimates of pool queries drawn uniformly.
    """
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < seconds]
    picks = rng.integers(pool_size, size=offsets.size)
    ops = [("feedback" if i % 4 == 3 else "estimate", int(pick))
           for i, pick in enumerate(picks)]
    return ops, (offsets * 1e9).astype(np.int64)


def open_loop(url: str, sqls: Sequence[str], ops: Sequence[tuple[str, int]],
              offsets_ns: np.ndarray, checker: Checker,
              grace_seconds: float = 0.5) -> tuple[list[Op], int]:
    """Open loop: send each operation at its due time on a free connection.

    A feedback write reports the last estimate its connection was
    served (the op's own pool query if it has none yet), carrying the
    executor-true cardinality.  Operations still unsent
    ``grace_seconds`` after the schedule ends are dropped and returned
    as the backlog count.
    """
    if not ops:
        return [], 0
    base = time.perf_counter_ns() + 20_000_000
    due = base + offsets_ns
    give_up = int(due[-1]) + int(grace_seconds * 1e9)
    cursor = itertools.count()
    lock = threading.Lock()
    results: list[list[Op]] = [[] for _ in range(CONNECTIONS)]
    unsent = [0]

    def connection(slot: int) -> None:
        records = results[slot]
        last: tuple[int, float] | None = None
        with ServeClient(url, timeout=30.0) as client:
            while True:
                with lock:
                    i = next(cursor)
                if i >= len(ops):
                    return
                wait = (int(due[i]) - time.perf_counter_ns()) / 1e9
                if wait > 0:
                    time.sleep(wait)
                begin = time.perf_counter_ns()
                if begin > give_up:
                    with lock:
                        unsent[0] += 1
                    continue
                kind, index = ops[i]
                trace_id = obs.mint_trace_id()
                try:
                    if kind == "estimate":
                        with obs.span("loadgen.op", kind=kind):
                            served = client.estimate(
                                sqls[index], trace_id=trace_id)["estimate"]
                        end = time.perf_counter_ns()
                        ok = checker.estimates(np.asarray([index]), [served])
                        if ok:
                            last = (index, float(served))
                    else:
                        target, estimate = (
                            last if last is not None
                            else (index, float(checker.reference[index])))
                        index = target
                        with obs.span("loadgen.op", kind=kind):
                            response = client.feedback(
                                sqls[target], float(checker.truth[target]),
                                estimate=estimate, trace_id=trace_id)
                        end = time.perf_counter_ns()
                        ok = checker.feedback(target, estimate, response)
                except _OP_ERRORS:
                    end = time.perf_counter_ns()
                    ok = False
                records.append(Op(kind, index, trace_id, int(due[i]), begin,
                                  end, ok))

    _run_threads(connection)
    return [op for ops_ in results for op in ops_], unsent[0]


def _run_threads(target: Callable[[int], None]) -> None:
    threads = [threading.Thread(target=target, args=(slot,),
                                name=f"perfbench-conn-{slot}")
               for slot in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def probe_passes(ops: Sequence[Op], unsent: int) -> bool:
    """A ladder rate passes with every op answered correctly, estimate
    p99 within :data:`LIMIT_MS`, and no growing backlog."""
    if unsent or not ops or not all(op.ok for op in ops):
        return False
    estimates = [op.latency_ms for op in ops if op.kind == "estimate"]
    if percentile(estimates, 99) > LIMIT_MS:
        return False
    ordered = sorted(ops, key=lambda op: op.due_ns)
    quarter = max(1, len(ordered) // 4)
    first = np.mean([op.late_ms for op in ordered[:quarter]])
    last = np.mean([op.late_ms for op in ordered[-quarter:]])
    return bool(last <= first + 1.0)


def search_max_rate(run_probe: Callable[[float], tuple[list[Op], int]]
                    ) -> tuple[float, list[dict], list[Op]]:
    """Bisect :data:`LADDER` for the highest passing rate.

    ``run_probe(rate)`` runs one open-loop probe and returns its ops and
    backlog.  Returns the rate (0.0 if even the lowest fails), one
    summary row per probe, and every op the probes attempted.
    """
    lo, hi = -1, len(LADDER)
    probes: list[dict] = []
    attempted: list[Op] = []
    while hi - lo > 1:
        mid = (lo + hi) // 2
        ops, unsent = run_probe(LADDER[mid])
        attempted.extend(ops)
        passed = probe_passes(ops, unsent)
        estimates = [op.latency_ms for op in ops if op.kind == "estimate"]
        probes.append({"rate": LADDER[mid], "ops": len(ops),
                       "unsent": unsent, "p99_ms": percentile(estimates, 99),
                       "passed": passed})
        lo, hi = (mid, hi) if passed else (lo, mid)
    return (LADDER[lo] if lo >= 0 else 0.0), probes, attempted

