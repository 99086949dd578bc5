"""One compute lane: a service's estimator work runs one thread at a time.

``EstimatePipeline.resolve`` and ``execute`` hold the pipeline's lane.
These tests drive the lane from many threads at once — answers stay
bitwise-equal to a sequential ``estimate_batch`` and every thread
finishes — and show that a traced request records its wait for the
lane as its own ``serve.lane.wait`` span.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import obs
from repro.serve.server import EstimationService
from repro.sql.parser import parse_query
from tests.serve.test_fused import perturb

#: Seconds every thread of a test gets to finish.
JOIN_TIMEOUT = 60.0


def statement_mix(queries) -> list[str]:
    """The queries' SQL plus literal-shifted re-issues of each."""
    return [perturb(query, delta).to_sql()
            for delta in (0.0, 1.0, 3.0) for query in queries]


def run_mixed_threads(estimate, estimate_many, feedback, sqls,
                      n_threads: int = 8) -> list[tuple[str, float]]:
    """``n_threads`` threads mixing the three verbs over ``sqls``.

    Thread ``t`` takes every ``n_threads``-th statement from ``t``; its
    ``k``-th call is a single estimate, a batch of up to four of its
    statements, or a feedback re-estimate, in turn.  A short switch
    interval makes the threads interleave often.  Returns every
    ``(sql, estimate)`` answered; fails if a thread raised or did not
    finish within :data:`JOIN_TIMEOUT`.
    """
    answers: list[list[tuple[str, float]]] = [[] for _ in range(n_threads)]
    errors: list[BaseException] = []
    barrier = threading.Barrier(n_threads)

    def work(thread_index: int) -> None:
        try:
            barrier.wait(timeout=JOIN_TIMEOUT)
            mine = sqls[thread_index::n_threads]
            for k, sql in enumerate(mine):
                verb = (thread_index + k) % 3
                if verb == 0:
                    answers[thread_index].append((sql, estimate(sql)))
                elif verb == 1:
                    chunk = mine[k:k + 4]
                    answers[thread_index].extend(
                        zip(chunk, estimate_many(chunk)))
                else:
                    answers[thread_index].append((sql, feedback(sql)))
        except Exception as exc:  # handed to the asserting thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(index,), daemon=True)
               for index in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + JOIN_TIMEOUT
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), (
        "a thread did not finish within the timeout")
    assert not errors, errors[:3]
    return [pair for per_thread in answers for pair in per_thread]


def assert_sequential_equal(estimator, answers) -> None:
    """Every answer equals sequential ``estimate_batch``, bitwise."""
    sqls = sorted({sql for sql, _ in answers})
    expected = dict(zip(sqls, estimator.estimate_batch(
        [parse_query(sql) for sql in sqls]).tolist()))
    mismatched = [(sql, got, expected[sql]) for sql, got in answers
                  if got != expected[sql]]
    assert not mismatched, mismatched[:3]


@pytest.fixture()
def sqls(conjunctive_workload):
    return statement_mix(conjunctive_workload.queries[:32])


@pytest.fixture()
def service(serve_estimator):
    service = EstimationService(serve_estimator, cache_size=0)
    yield service
    service.close()


def test_threads_mixing_verbs_match_sequential_estimates(
        service, serve_estimator, sqls):
    answers = run_mixed_threads(
        lambda sql: service.estimate(sql)[0],
        service.estimate_many_sql,
        lambda sql: service.feedback(sql, true_cardinality=10.0)[1],
        sqls)
    assert len(answers) >= len(sqls)
    assert_sequential_equal(serve_estimator, answers)


def test_lane_wait_is_a_span_under_each_waiting_request(service, sqls):
    hold_seconds = 0.3
    lane = service._pipeline._lane
    with obs.use_tracer(obs.Tracer(enabled=True)) as tracer:
        lane.acquire()
        held = True
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                single = pool.submit(service.estimate, sqls[0])
                batch = pool.submit(service.estimate_many_sql, sqls[1:5])
                time.sleep(hold_seconds)
                lane.release()
                held = False
                single.result(timeout=JOIN_TIMEOUT)
                batch.result(timeout=JOIN_TIMEOUT)
        finally:
            if held:
                lane.release()
        spans = tracer.finished()
    by_id = {span.span_id: span for span in spans}
    requests = [span for span in spans if span.name == "serve.request"]
    assert len(requests) == 2
    waits = [span for span in spans if span.name == "serve.lane.wait"]
    for request in requests:
        # Resolving in the handler thread waited behind the held lane.
        own = [wait for wait in waits if wait.parent_id == request.span_id]
        assert own, f"no lane wait under {request.attributes}"
        assert max(wait.duration_seconds for wait in own) \
            >= hold_seconds / 3
    # The single request's execute waits for the lane on the batcher's
    # worker, under that batch's execute span.
    execute_waits = [wait for wait in waits
                     if wait.parent_id in by_id
                     and by_id[wait.parent_id].name == "serve.batch.execute"]
    assert execute_waits
