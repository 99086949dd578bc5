"""Tests for the micro-batching executor, including the concurrency
stress test (bitwise batch-vs-sequential identity)."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.serve import BatcherClosedError, MicroBatcher
from repro.serve.server import EstimationService
from repro.sql.parser import parse_query

#: A statement the forest estimators reject (unknown attribute).
BAD_SQL = "SELECT count(*) FROM forest WHERE nosuchcol >= 3"


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
            import time

            time.sleep(self._delay)
        if self._fail:
            raise RuntimeError("backend exploded")
        return np.asarray([float(len(str(q))) for q in queries])


class TestBasics:
    def test_single_request_resolves(self, serve_estimator,
                                     conjunctive_workload):
        query = conjunctive_workload.queries[0]
        with MicroBatcher(serve_estimator.estimate_batch,
                          max_batch_size=4, max_wait_ms=1.0) as batcher:
            result = batcher.submit(query).result(timeout=10)
        assert result == serve_estimator.estimate(query)

    def test_validates_config(self, serve_estimator):
        with pytest.raises(ValueError, match="max_batch_size"):
            MicroBatcher(serve_estimator.estimate_batch, max_batch_size=0)
        with pytest.raises(ValueError, match="max_wait_ms"):
            MicroBatcher(serve_estimator.estimate_batch, max_wait_ms=-1)

    def test_requests_actually_batch(self):
        backend = RecordingBackend()
        with MicroBatcher(backend.estimate_batch, max_batch_size=8,
                          max_wait_ms=50.0) as batcher:
            futures = [batcher.submit(f"q{i}") for i in range(8)]
            for future in futures:
                future.result(timeout=10)
        # A 50ms window and instant submissions: the first dispatch
        # collects everything (the full batch triggers early dispatch).
        assert max(backend.batches) > 1
        assert sum(backend.batches) == 8

    def test_backend_error_propagates_to_all_futures(self):
        backend = RecordingBackend(fail=True)
        with MicroBatcher(backend.estimate_batch, max_batch_size=4,
                          max_wait_ms=20.0) as batcher:
            futures = [batcher.submit(f"q{i}") for i in range(3)]
            for future in futures:
                with pytest.raises(RuntimeError, match="backend exploded"):
                    future.result(timeout=10)
        # Each item ran once: a failed batch is not re-run item by item.
        assert sum(backend.batches) == 3


class TestErrorIsolation:
    """A bad statement fails at resolve, in its own request's thread, so
    it never rides a batch with other requests."""

    def test_bad_statement_fails_only_its_request(self, serve_estimator,
                                                  conjunctive_workload):
        sqls = [q.to_sql() for q in conjunctive_workload.queries[:6]]
        expected = {sql: float(serve_estimator.estimate_batch(
            [parse_query(sql)])[0]) for sql in sqls}
        # A full batch dispatches at once; the wide window only makes
        # sure all seven requests ride the same one.
        service = EstimationService(serve_estimator, max_batch_size=7,
                                    max_wait_ms=2000.0)
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
        batcher = MicroBatcher(backend.estimate_batch, max_batch_size=2,
                               max_wait_ms=0.0)
        futures = [batcher.submit(f"q{i}") for i in range(20)]
        batcher.close(drain=True)
        # Every request accepted before close resolves with a value.
        results = [future.result(timeout=10) for future in futures]
        assert len(results) == 20
        assert sum(backend.batches) == 20

    def test_close_without_drain_cancels_pending(self):
        import time

        release = threading.Event()
        started = threading.Event()

        def blocking_backend(queries):
            started.set()
            release.wait(timeout=10)
            return np.zeros(len(queries))

        batcher = MicroBatcher(blocking_backend, max_batch_size=1,
                               max_wait_ms=0.0)
        futures = [batcher.submit(f"q{i}") for i in range(10)]
        assert started.wait(timeout=10)
        closer = threading.Thread(target=lambda: batcher.close(drain=False))
        closer.start()
        time.sleep(0.05)  # let close() mark the batcher closed
        release.set()
        closer.join(timeout=10)
        assert not closer.is_alive()
        # The batch already executing completes; everything still queued
        # is cancelled rather than silently dropped.
        assert futures[0].result(timeout=1) == 0.0
        assert all(f.done() for f in futures)
        assert all(f.cancelled() for f in futures[1:])


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

        with MicroBatcher(serve_estimator.estimate_batch, max_batch_size=16,
                          max_wait_ms=2.0) as batcher:
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
        service = EstimationService(serve_estimator, max_batch_size=16,
                                    max_wait_ms=2.0, cache_size=1024,
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
