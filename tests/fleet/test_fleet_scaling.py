"""Gate: a fleet of 4 worker processes serves at least the rate of one.

Real :class:`ProcessWorker` fleets of 1 and 4 workers (estimate cache
off), each behind a :class:`FleetRouter` and :class:`RouterServer`,
serve the same statements in batches of 64 from 4 client threads.  A
60-tree forest makes the workers' compute outweigh the router's
forwarding.  Every answer must equal ``estimate_batch`` of the
published model bitwise; each fleet keeps its best of three rounds.

Workers are processes, so a fleet can only scale with cores.  Below 4
cores the router, the clients and the workers time-slice each other and
the comparison measures the scheduler, so the test skips there.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.estimators import LearnedEstimator
from repro.featurize import ConjunctiveEncoding
from repro.fleet import (
    FleetRouter,
    ProcessWorker,
    RouterServer,
    WorkerSupervisor,
)
from repro.models import GradientBoostingRegressor
from repro.serve import ModelRegistry, ServeClient
from repro.sql.parser import parse_query

WORKERS = 4
MIN_FLEET_SPEEDUP = 1.0
CLIENTS = 4
BATCH = 64
STATEMENTS = 256
PASSES = 4
ROUNDS = 3

pytestmark = pytest.mark.skipif(
    (os.cpu_count() or 1) < WORKERS,
    reason=f"a fleet of {WORKERS} worker processes needs {WORKERS} cores "
           f"to scale")


@pytest.fixture(scope="module")
def registry(tmp_path_factory, small_forest, conjunctive_workload):
    """A registry holding one 60-tree model, ``scale``."""
    items = list(conjunctive_workload)
    estimator = LearnedEstimator(
        ConjunctiveEncoding(small_forest, max_partitions=8),
        GradientBoostingRegressor(n_estimators=60,
                                  early_stopping_rounds=None),
    ).fit([item.query for item in items],
          np.asarray([item.cardinality for item in items], dtype=float))
    registry = ModelRegistry(tmp_path_factory.mktemp("scaling") / "reg")
    registry.publish(estimator, "scale")
    return registry


@pytest.fixture(scope="module")
def batches(conjunctive_workload):
    sqls = list(dict.fromkeys(
        query.to_sql() for query in conjunctive_workload.queries))
    assert len(sqls) >= STATEMENTS, "the shared workload is too small"
    return [sqls[start:start + BATCH]
            for start in range(0, STATEMENTS, BATCH)]


def _round_seconds(url: str, batches, expected) -> float:
    """Wall seconds for CLIENTS threads to send every batch PASSES times."""
    def client_loop(offset: int) -> None:
        with ServeClient(url, timeout=60.0) as client:
            for step in range(len(batches) * PASSES):
                index = (offset + step) % len(batches)
                np.testing.assert_array_equal(
                    client.estimate_batch(batches[index]), expected[index])

    with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
        start = time.perf_counter()
        futures = [pool.submit(client_loop, offset)
                   for offset in range(CLIENTS)]
        for future in futures:
            future.result(timeout=120)
        return time.perf_counter() - start


def _fleet_qps(registry, workers: int, batches, expected) -> float:
    supervisor = WorkerSupervisor(
        lambda worker_id: ProcessWorker(worker_id, registry.root, "scale",
                                        cache_size=0, tick_every=0).start())
    supervisor.spawn(workers)
    server = RouterServer(FleetRouter(supervisor.pool,
                                      supervisor=supervisor)).start()
    try:
        # Warm-up: every worker parses and plans its share of the
        # statements before the clock starts.
        with ServeClient(server.url, timeout=60.0) as client:
            for batch, reference in zip(batches, expected):
                np.testing.assert_array_equal(client.estimate_batch(batch),
                                              reference)
        best = min(_round_seconds(server.url, batches, expected)
                   for _ in range(ROUNDS))
    finally:
        server.stop()
        supervisor.stop()
    return CLIENTS * PASSES * len(batches) * BATCH / best


def test_fleet_of_4_serves_at_least_one_worker(registry, batches):
    served = registry.load("scale")
    expected = [served.estimate_batch([parse_query(sql) for sql in batch])
                for batch in batches]
    one = _fleet_qps(registry, 1, batches, expected)
    fleet = _fleet_qps(registry, WORKERS, batches, expected)
    assert fleet >= MIN_FLEET_SPEEDUP * one, (
        f"{WORKERS} workers served {fleet:.0f} q/s, below "
        f"{MIN_FLEET_SPEEDUP}x the single worker's {one:.0f} q/s")
