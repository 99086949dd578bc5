"""Gate: batches of 64 over HTTP serve at least 5x the single-request rate.

An in-process :class:`EstimationServer` with the estimate cache off (so
every request pays resolve → encode → predict) answers the same 256
distinct statements twice per round over one keep-alive connection:
one ``POST /v1/estimate`` each, then ``POST /v1/estimate_batch`` in
batches of 64.  After a warm-up round, each leg keeps its best of three
rounds.  Every answer of every round must equal ``estimate_batch`` on
the parsed statements bitwise.

The end-to-end serving numbers live in the repository benchmark
(``perfbench/``, medians committed as ``BENCH_serve.json``); this test
keeps only the ratio, which holds on any host.
"""

from __future__ import annotations

import time

import numpy as np

from repro.serve import EstimationServer, EstimationService, ServeClient
from repro.sql.parser import parse_query

MIN_BATCH_SPEEDUP = 5.0
STATEMENTS = 256
BATCH = 64
ROUNDS = 3


def _distinct_sqls(workload, count: int) -> list[str]:
    sqls = list(dict.fromkeys(q.to_sql() for q in workload.queries))
    assert len(sqls) >= count, "the shared workload is too small"
    return sqls[:count]


def test_batch64_serves_5x_single(serve_estimator, conjunctive_workload):
    sqls = _distinct_sqls(conjunctive_workload, STATEMENTS)
    reference = serve_estimator.estimate_batch(
        [parse_query(sql) for sql in sqls])
    service = EstimationService(serve_estimator, cache_size=0)

    def single(client: ServeClient) -> list[float]:
        return [client.estimate(sql)["estimate"] for sql in sqls]

    def batched(client: ServeClient) -> list[float]:
        return [estimate for start in range(0, len(sqls), BATCH)
                for estimate in client.estimate_batch(
                    sqls[start:start + BATCH])]

    best = {single: float("inf"), batched: float("inf")}
    with EstimationServer(service) as server, \
            ServeClient(server.url, timeout=60.0) as client:
        for leg in best:
            np.testing.assert_array_equal(leg(client), reference)
        for _ in range(ROUNDS):
            for leg in best:
                start = time.perf_counter()
                answers = leg(client)
                best[leg] = min(best[leg], time.perf_counter() - start)
                np.testing.assert_array_equal(answers, reference)

    speedup = best[single] / best[batched]
    assert speedup >= MIN_BATCH_SPEEDUP, (
        f"batch-{BATCH} served {STATEMENTS / best[batched]:.0f} q/s, only "
        f"{speedup:.2f}x the single-request {STATEMENTS / best[single]:.0f} "
        f"q/s (need {MIN_BATCH_SPEEDUP}x)")
