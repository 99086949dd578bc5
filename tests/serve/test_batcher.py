"""Tests for the micro-batching executor, including the concurrency
stress test (bitwise batch-vs-sequential identity)."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.serve import (
    BatcherClosedError,
    EstimationServer,
    EstimationService,
    MicroBatcher,
    ServeClient,
    ServeClientError,
)
from repro.sql.parser import parse_query
from tests.serve.test_server import SlowEstimator

#: A statement the forest estimators reject (unknown attribute).
BAD_SQL = "SELECT count(*) FROM forest WHERE nosuchcol >= 3"

#: Seconds any wait or join of a test gets.
JOIN_TIMEOUT = 30.0


class RecordingBackend:
    """An estimate_batch stub that records every dispatched batch."""

    def __init__(self, delay: float = 0.0, fail: bool = False):
        self.batches: list[int] = []
        self._delay = delay
        self._fail = fail
        self._lock = threading.Lock()

    def estimate_batch(self, queries):
        with self._lock:
            self.batches.append(len(queries))
        if self._delay:
            time.sleep(self._delay)
        if self._fail:
            raise RuntimeError("backend exploded")
        return np.asarray([float(len(str(q))) for q in queries])


class GatedEstimator(SlowEstimator):
    """Wraps an estimator; every predict records its rows, then blocks
    until ``release`` is set."""

    def __init__(self, base) -> None:
        super().__init__(base, delay=0.0)
        self.rows: list[int] = []
        self.release = threading.Event()

    def estimate_features(self, features):
        self.rows.append(len(features))
        assert self.release.wait(timeout=JOIN_TIMEOUT)
        return super().estimate_features(features)


class BlockingBackend(RecordingBackend):
    """A RecordingBackend whose calls block until ``release`` is set;
    ``started`` is set once the first call is running."""

    def __init__(self) -> None:
        super().__init__()
        self.started = threading.Event()
        self.release = threading.Event()

    def estimate_batch(self, queries):
        self.started.set()
        assert self.release.wait(timeout=JOIN_TIMEOUT)
        return super().estimate_batch(queries)


class TestBasics:
    def test_single_request_resolves(self, serve_estimator,
                                     conjunctive_workload):
        query = conjunctive_workload.queries[0]
        with MicroBatcher(serve_estimator.estimate_batch) as batcher:
            result = batcher.submit(query).result(timeout=10)
        assert result == serve_estimator.estimate(query)

    def test_requests_arriving_during_an_execute_ride_the_next_batch(self):
        backend = BlockingBackend()
        with MicroBatcher(backend.estimate_batch) as batcher:
            first = batcher.submit("q0")
            assert backend.started.wait(timeout=JOIN_TIMEOUT)
            # A batch has no cap of its own: all 100 ride the next one.
            rest = [batcher.submit(f"q{i}") for i in range(1, 101)]
            backend.release.set()
            for future in [first, *rest]:
                future.result(timeout=JOIN_TIMEOUT)
        assert backend.batches == [1, 100]

    def test_a_lone_request_does_not_wait_for_company(self):
        backend = RecordingBackend()
        with MicroBatcher(backend.estimate_batch) as batcher:
            start = time.perf_counter()
            for i in range(200):
                batcher.submit(f"q{i}").result(timeout=JOIN_TIMEOUT)
            elapsed = time.perf_counter() - start
        assert backend.batches == [1] * 200
        # Well under a millisecond each: no request waits for company.
        assert elapsed < 0.2, f"200 sequential requests took {elapsed:.3f}s"

    def test_backend_error_propagates_to_all_futures(self):
        backend = RecordingBackend(fail=True)
        with MicroBatcher(backend.estimate_batch) as batcher:
            futures = [batcher.submit(f"q{i}") for i in range(3)]
            for future in futures:
                with pytest.raises(RuntimeError, match="backend exploded"):
                    future.result(timeout=10)
        # Each item ran once: a failed batch is not re-run item by item.
        assert sum(backend.batches) == 3


class TestAdmissionBoundsBatches:
    """A batch has no cap of its own: each queued request holds one of
    the service's ``max_inflight`` admission slots until it resolves."""

    def test_no_batch_exceeds_the_inflight_limit(self, serve_estimator,
                                                 conjunctive_workload):
        limit, n_requests = 4, 8
        sqls = [q.to_sql() for q in conjunctive_workload.queries[:n_requests]]
        estimator = GatedEstimator(serve_estimator)
        service = EstimationService(estimator, max_inflight=limit,
                                    cache_size=0)
        outcomes: list[object] = []
        lock = threading.Lock()
        start = threading.Barrier(n_requests)
        with EstimationServer(service) as server:
            def fire(sql: str) -> None:
                with ServeClient(server.url, timeout=JOIN_TIMEOUT) as client:
                    start.wait(timeout=JOIN_TIMEOUT)
                    try:
                        outcome: object = client.estimate(sql)["estimate"]
                    except ServeClientError as exc:
                        outcome = exc.status
                with lock:
                    outcomes.append(outcome)

            threads = [threading.Thread(target=fire, args=(sql,))
                       for sql in sqls]
            for thread in threads:
                thread.start()
            # The admitted requests block in the gated predict, so the
            # first answers to come back are the rejections.
            deadline = time.monotonic() + JOIN_TIMEOUT
            while len(outcomes) < n_requests - limit:
                assert time.monotonic() < deadline, outcomes
                time.sleep(0.005)
            estimator.release.set()
            for thread in threads:
                thread.join(timeout=JOIN_TIMEOUT)
            assert not any(thread.is_alive() for thread in threads)
        assert sorted(o for o in outcomes if o == 503) == [503] * (
            n_requests - limit)
        assert len([o for o in outcomes if isinstance(o, float)]) == limit
        assert estimator.rows and max(estimator.rows) <= limit


class TestErrorIsolation:
    """A bad statement fails at resolve, in its own request's thread, so
    it never rides a batch with other requests."""

    def test_bad_statement_fails_only_its_request(self, serve_estimator,
                                                  conjunctive_workload):
        sqls = [q.to_sql() for q in conjunctive_workload.queries[:6]]
        expected = {sql: float(serve_estimator.estimate_batch(
            [parse_query(sql)])[0]) for sql in sqls}
        # However the seven requests happen to batch, the bad one fails
        # at resolve in its own thread.
        service = EstimationService(serve_estimator)
        start = threading.Barrier(7)
        outcomes: dict[str, object] = {}
        lock = threading.Lock()

        def fire(sql: str) -> None:
            start.wait()
            try:
                outcome: object = service.estimate(sql)[0]
            except Exception as exc:  # noqa: BLE001 — recorded for assert
                outcome = exc
            with lock:
                outcomes[sql] = outcome

        threads = [threading.Thread(target=fire, args=(sql,))
                   for sql in sqls + [BAD_SQL]]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        service.close()
        assert isinstance(outcomes[BAD_SQL], KeyError)
        assert {sql: outcomes[sql] for sql in sqls} == expected


class TestShutdown:
    def test_submit_after_close_raises(self, serve_estimator):
        batcher = MicroBatcher(serve_estimator.estimate_batch)
        batcher.close()
        with pytest.raises(BatcherClosedError):
            batcher.submit(object())

    def test_close_is_idempotent(self, serve_estimator):
        batcher = MicroBatcher(serve_estimator.estimate_batch)
        batcher.close()
        batcher.close()

    def test_close_drains_accepted_requests(self):
        backend = RecordingBackend(delay=0.02)
        batcher = MicroBatcher(backend.estimate_batch)
        futures = [batcher.submit(f"q{i}") for i in range(20)]
        batcher.close()
        # Every request accepted before close resolves with a value.
        results = [future.result(timeout=10) for future in futures]
        assert len(results) == 20
        assert sum(backend.batches) == 20


class TestConcurrencyStress:
    """ISSUE satellite: >= 200 interleaved requests from >= 8 threads,
    resolved results bitwise-identical to sequential estimates, cache
    counters consistent."""

    N_THREADS = 8
    PER_THREAD = 30  # 240 requests total

    def test_batcher_matches_sequential_bitwise(self, serve_estimator,
                                                conjunctive_workload):
        queries = conjunctive_workload.queries[:60]
        expected = {id(q): serve_estimator.estimate(q) for q in queries}
        results: dict[tuple[int, int], tuple[int, float]] = {}
        lock = threading.Lock()
        start = threading.Barrier(self.N_THREADS)

        with MicroBatcher(serve_estimator.estimate_batch) as batcher:
            def worker(worker_id: int) -> None:
                start.wait()
                rng = np.random.default_rng(worker_id)
                picks = rng.integers(0, len(queries), self.PER_THREAD)
                futures = [(int(p), batcher.submit(queries[p]))
                           for p in picks]
                local = {}
                for i, (pick, future) in enumerate(futures):
                    local[(worker_id, i)] = (pick, future.result(timeout=30))
                with lock:
                    results.update(local)

            threads = [threading.Thread(target=worker, args=(t,))
                       for t in range(self.N_THREADS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert len(results) == self.N_THREADS * self.PER_THREAD
        for pick, value in results.values():
            # Bitwise equality: the batch a request rode in must not
            # influence its estimate.
            assert value == expected[id(queries[pick])]

    def test_service_stress_with_cache_counters(self, serve_estimator,
                                                conjunctive_workload):
        queries = conjunctive_workload.queries[:40]
        sqls = [q.to_sql() for q in queries]
        expected = {id(q): serve_estimator.estimate(q) for q in queries}
        service = EstimationService(serve_estimator, cache_size=1024,
                                    max_inflight=512)
        failures: list[str] = []
        lock = threading.Lock()
        start = threading.Barrier(self.N_THREADS)

        def worker(worker_id: int) -> None:
            start.wait()
            rng = np.random.default_rng(100 + worker_id)
            for pick in rng.integers(0, len(queries), self.PER_THREAD):
                value, _ = service.estimate(sqls[pick])
                if value != expected[id(queries[pick])]:
                    with lock:
                        failures.append(
                            f"query {pick}: {value} != "
                            f"{expected[id(queries[pick])]}")

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(self.N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        service.close()

        assert failures == []
        stats = service.cache.stats()
        total = self.N_THREADS * self.PER_THREAD
        # Every request either hit or missed, nothing lost or counted
        # twice; at least one hit per distinct query after warm-up.
        assert stats["hits"] + stats["misses"] == total
        # Each distinct query must miss at least once before it can be
        # cached, and with 240 requests over 40 queries hits dominate.
        assert stats["misses"] >= stats["size"]
        assert stats["hits"] > 0
        assert stats["size"] <= len(queries)
