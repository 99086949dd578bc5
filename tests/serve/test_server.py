"""Tests for the HTTP serving front-end: endpoints, admission control,
graceful drain, and /metrics byte-stability."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.estimators import LearnedEstimator
from repro.obs.events import EventLog
from repro.featurize import DisjunctionEncoding
from repro.models import GradientBoostingRegressor
from repro.serve import (
    EstimationServer,
    EstimationService,
    ServeClient,
    ServeClientError,
)
from repro.sql.ast import MAX_COMPOUND_BRANCHES
from repro.sql.parser import MAX_PAREN_DEPTH, parse_query

from .conftest import stepping_clock


class SlowEstimator:
    """Stub estimator whose batches take a configurable time."""

    name = "slow-stub"

    def __init__(self, delay: float) -> None:
        self._delay = delay

    def estimate_batch(self, queries):
        time.sleep(self._delay)
        return np.asarray([float(len(str(q))) for q in queries])

    def estimate(self, query):
        return float(self.estimate_batch([query])[0])


@pytest.fixture()
def running_server(serve_estimator):
    """A started server over the shared estimator; stopped afterwards."""
    service = EstimationService(serve_estimator, max_batch_size=8,
                                max_wait_ms=1.0, cache_size=128,
                                max_inflight=64)
    server = EstimationServer(service)
    server.start()
    yield server
    server.stop()


@pytest.fixture(scope="module")
def complex_estimator(small_forest, mixed_workload):
    """A GB estimator under Limited Disjunction Encoding."""
    items = list(mixed_workload)[:200]
    return LearnedEstimator(
        DisjunctionEncoding(small_forest, max_partitions=8),
        GradientBoostingRegressor(n_estimators=10),
    ).fit([item.query for item in items],
          np.asarray([item.cardinality for item in items], dtype=float))


def nested_sql(depth: int) -> str:
    """``A1 > 0 AND (A1 > 1 OR (A1 > 2 AND (…)))``: ``depth`` levels of
    parentheses, each a new AND/OR node on one attribute."""
    expr = f"A1 > {depth}"
    for level in reversed(range(depth)):
        joiner = "AND" if level % 2 == 0 else "OR"
        expr = f"A1 > {level} {joiner} ({expr})"
    return f"SELECT count(*) FROM forest WHERE {expr}"


def or_pairs_sql(pairs: int) -> str:
    """``pairs`` ANDed two-way ORs: ``2 ** pairs`` disjunction branches."""
    return "SELECT count(*) FROM forest WHERE " + " AND ".join(
        f"(A1 > {i} OR A1 < {-i})" for i in range(pairs))


def status_of(call) -> int:
    """200, or the HTTP status a client call failed with."""
    try:
        call()
    except ServeClientError as exc:
        return exc.status
    return 200


@pytest.fixture()
def sqls(conjunctive_workload):
    """A few parseable SQL strings matching the shared estimator."""
    return [q.to_sql() for q in conjunctive_workload.queries[:12]]


class TestEndpoints:
    def test_healthz(self, running_server):
        client = ServeClient(running_server.url)
        assert client.healthz() == {"status": "ok"}

    def test_estimate_and_cache_flag(self, running_server, sqls):
        client = ServeClient(running_server.url)
        first = client.estimate(sqls[0])
        second = client.estimate(sqls[0])
        assert first["cached"] is False
        assert second["cached"] is True
        assert first["estimate"] == second["estimate"]
        assert first["estimate"] > 0

    def test_estimate_batch_matches_direct(self, running_server, sqls,
                                           serve_estimator,
                                           conjunctive_workload):
        client = ServeClient(running_server.url)
        estimates = client.estimate_batch(sqls)
        direct = serve_estimator.estimate_batch(
            conjunctive_workload.queries[:12])
        np.testing.assert_array_equal(np.asarray(estimates), direct)

    def test_single_and_batch_agree(self, running_server, sqls):
        client = ServeClient(running_server.url)
        singles = [client.estimate(sql)["estimate"] for sql in sqls[:5]]
        batch = client.estimate_batch(sqls[:5])
        assert singles == batch

    def test_metrics_endpoint_is_json(self, running_server, sqls):
        client = ServeClient(running_server.url)
        client.estimate(sqls[0])
        import json

        snapshot = json.loads(client.metrics())
        assert snapshot["serve.requests_total"]["value"] >= 1
        assert "serve.batch.size" in snapshot


class TestErrorMapping:
    def test_bad_sql_is_400(self, running_server):
        client = ServeClient(running_server.url)
        with pytest.raises(ServeClientError) as excinfo:
            client.estimate("SELECT nope FROM nowhere !!!")
        assert excinfo.value.status == 400

    def test_unknown_attribute_is_400(self, running_server):
        client = ServeClient(running_server.url)
        with pytest.raises(ServeClientError) as excinfo:
            client.estimate("SELECT count(*) FROM forest WHERE Ghost > 1")
        assert excinfo.value.status == 400
        assert "unknown attribute" in str(excinfo.value)

    def test_batch_with_unknown_attribute_is_400_next_to_hits(
            self, running_server, sqls):
        client = ServeClient(running_server.url)
        client.estimate_batch(sqls[:4])
        bad = "SELECT count(*) FROM forest WHERE Ghost > 1"
        with pytest.raises(ServeClientError) as excinfo:
            client.estimate_batch(sqls[:4] + [bad])
        assert excinfo.value.status == 400
        assert "unknown attribute" in str(excinfo.value)

    def test_bad_statement_fails_only_its_own_request(self, serve_estimator,
                                                      sqls):
        bad = "SELECT count(*) FROM forest WHERE nosuchcol >= 3"
        valid = sqls[:6]
        expected = {sql: float(serve_estimator.estimate_batch(
            [parse_query(sql)])[0]) for sql in valid}
        # A full batch dispatches at once; the wide window only makes
        # sure all seven requests ride the same one.
        service = EstimationService(serve_estimator, max_batch_size=7,
                                    max_wait_ms=2000.0)
        start = threading.Barrier(7)
        outcomes: dict[str, object] = {}
        lock = threading.Lock()
        with EstimationServer(service) as server:
            def fire(sql: str) -> None:
                with ServeClient(server.url, timeout=30) as client:
                    start.wait()
                    try:
                        outcome: object = client.estimate(sql)["estimate"]
                    except ServeClientError as exc:
                        outcome = exc
                with lock:
                    outcomes[sql] = outcome

            threads = [threading.Thread(target=fire, args=(sql,))
                       for sql in valid + [bad]]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert isinstance(outcomes[bad], ServeClientError)
        assert outcomes[bad].status == 400
        assert {sql: outcomes[sql] for sql in valid} == expected

    def test_complex_qft_resolves_attributes(self, complex_estimator):
        service = EstimationService(complex_estimator, max_wait_ms=1.0)
        with EstimationServer(service) as server:
            client = ServeClient(server.url)
            with pytest.raises(ServeClientError) as excinfo:
                client.estimate(
                    "SELECT count(*) FROM forest WHERE nosuchcol > 3")
            assert excinfo.value.status == 400
            assert "unknown attribute" in str(excinfo.value)
            qualified, bare = client.estimate_batch([
                "SELECT count(*) FROM forest WHERE forest.A1 > 3300",
                "SELECT count(*) FROM forest WHERE A1 > 3300",
            ])
            assert qualified == bare

    def test_deeply_nested_sql_is_400(self, running_server):
        sql = ("SELECT count(*) FROM forest WHERE " + "(" * 400 + "A1 > 1"
               + ")" * 400)
        client = ServeClient(running_server.url)
        for call in (lambda: client.estimate(sql),
                     lambda: client.estimate_batch([sql])):
            with pytest.raises(ServeClientError) as excinfo:
                call()
            assert excinfo.value.status == 400
            assert "nest deeper" in str(excinfo.value)

    def test_nesting_at_the_bound_is_estimated_or_400(
            self, running_server, complex_estimator):
        """AND/OR nested to the parser's bound on one attribute: every
        AST walker behind a handler thread copes, for a QFT that
        encodes it and for one that rejects it."""
        sql = nested_sql(MAX_PAREN_DEPTH)
        service = EstimationService(complex_estimator, max_wait_ms=1.0)
        with EstimationServer(service) as server:
            client = ServeClient(server.url)
            expected = complex_estimator.estimate_batch([parse_query(sql)])
            assert client.estimate(sql)["estimate"] == expected[0]
            assert client.estimate_batch([sql]) == expected.tolist()
        conjunctive = ServeClient(running_server.url)
        assert status_of(lambda: conjunctive.estimate(sql)) == 400
        assert status_of(lambda: conjunctive.estimate_batch([sql])) == 400

    def test_exponential_compound_is_400(self, complex_estimator):
        widest = MAX_COMPOUND_BRANCHES.bit_length() - 1
        service = EstimationService(complex_estimator, max_wait_ms=1.0)
        with EstimationServer(service) as server:
            client = ServeClient(server.url)
            sql = or_pairs_sql(widest)
            assert client.estimate(sql)["estimate"] \
                == complex_estimator.estimate(parse_query(sql))
            sql = or_pairs_sql(widest + 1)
            for call in (lambda: client.estimate(sql),
                         lambda: client.estimate_batch([sql])):
                with pytest.raises(ServeClientError) as excinfo:
                    call()
                assert excinfo.value.status == 400
                assert "disjunction branches" in str(excinfo.value)

    def test_malformed_json_is_400(self, running_server):
        import urllib.request

        request = urllib.request.Request(
            running_server.url + "/v1/estimate", data=b"{broken",
            method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_wrong_payload_shape_is_400(self, running_server):
        client = ServeClient(running_server.url)
        with pytest.raises(ServeClientError) as excinfo:
            client._post("/v1/estimate_batch", {"sql": "not a list"})
        assert excinfo.value.status == 400

    @pytest.mark.parametrize(
        "path", ["/v2/everything", "/metrics?format=prometheus"],
        ids=["unknown-path", "prometheus-query-alias"])
    def test_unknown_route_is_404(self, running_server, path):
        client = ServeClient(running_server.url)
        with pytest.raises(ServeClientError) as excinfo:
            client._get(path)
        assert excinfo.value.status == 404


class TestAdmissionControl:
    def test_saturated_service_returns_503_with_retry_after(self, sqls):
        service = EstimationService(SlowEstimator(delay=0.5),
                                    max_batch_size=1, max_wait_ms=0.0,
                                    cache_size=0, max_inflight=1)
        with EstimationServer(service) as server:
            client = ServeClient(server.url)
            results: list = []

            def occupy() -> None:
                results.append(client.estimate(sqls[0]))

            thread = threading.Thread(target=occupy)
            thread.start()
            deadline = time.monotonic() + 5
            while service._inflight < 1:
                if time.monotonic() > deadline:
                    raise AssertionError("first request never admitted")
                time.sleep(0.005)
            with pytest.raises(ServeClientError) as excinfo:
                client.estimate(sqls[1])
            thread.join()
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after == 1
        assert len(results) == 1  # the occupying request still succeeded

    def test_rejections_counted(self, sqls):
        obs.reset()
        service = EstimationService(SlowEstimator(delay=0.3),
                                    max_batch_size=1, max_wait_ms=0.0,
                                    cache_size=0, max_inflight=1)
        with EstimationServer(service) as server:
            client = ServeClient(server.url)
            thread = threading.Thread(
                target=lambda: client.estimate(sqls[0]))
            thread.start()
            deadline = time.monotonic() + 5
            while service._inflight < 1:
                if time.monotonic() > deadline:
                    raise AssertionError("first request never admitted")
                time.sleep(0.005)
            with pytest.raises(ServeClientError):
                client.estimate(sqls[1])
            thread.join()
        snapshot = obs.get_registry().snapshot()
        assert snapshot["serve.rejected_total"]["value"] == 1


class TestGracefulDrain:
    def test_accepted_requests_survive_stop(self, sqls):
        n_requests = 6
        service = EstimationService(SlowEstimator(delay=0.1),
                                    max_batch_size=1, max_wait_ms=0.0,
                                    cache_size=0, max_inflight=64)
        server = EstimationServer(service).start()
        client = ServeClient(server.url, timeout=30)
        results: list = []
        errors: list = []
        lock = threading.Lock()

        def fire(i: int) -> None:
            try:
                value = client.estimate(sqls[i])
            except Exception as exc:  # noqa: BLE001 — recorded for assert
                with lock:
                    errors.append(exc)
            else:
                with lock:
                    results.append(value)

        threads = [threading.Thread(target=fire, args=(i,))
                   for i in range(n_requests)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 10
        while service._inflight < n_requests:
            if time.monotonic() > deadline:
                raise AssertionError(
                    f"only {service._inflight}/{n_requests} admitted")
            time.sleep(0.005)
        # Stop while every request is still in flight: the drain must
        # complete them all before the server lets go.
        server.stop(drain=True)
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(results) == n_requests
        assert all(r["estimate"] > 0 for r in results)

    def test_requests_after_stop_are_refused(self, serve_estimator, sqls):
        service = EstimationService(serve_estimator)
        server = EstimationServer(service).start()
        client = ServeClient(server.url)
        client.estimate(sqls[0])
        server.stop()
        with pytest.raises(ServeClientError):
            client.estimate(sqls[1])


class TestMetricsByteStability:
    def test_identical_runs_identical_bytes(self, serve_estimator, sqls):
        def run_once() -> str:
            obs.reset()
            # Request latency is on /metrics: pin the clock it is read
            # from, so latencies are a function of the request sequence.
            obs.set_event_log(EventLog(clock_ns=stepping_clock()))
            service = EstimationService(serve_estimator, max_batch_size=8,
                                        max_wait_ms=0.0, cache_size=64,
                                        max_inflight=32)
            with EstimationServer(service) as server:
                client = ServeClient(server.url)
                for sql in sqls[:4]:
                    client.estimate(sql)
                client.estimate(sqls[0])  # one cache hit
                client.estimate_batch(sqls[:6])
                return client.metrics()

        assert run_once() == run_once()
