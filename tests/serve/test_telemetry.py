"""Accuracy-aware serving telemetry, end to end.

Covers the PR's acceptance path: a traced client → server → batcher run
stitching into one Chrome trace, a windowed per-model q-error p95 that
shifts within two logical ticks of an injected estimate-quality
degradation, the worst-q-error exemplar retaining the offending SQL,
and a Prometheus scrape that round-trips through the strict validator —
byte-for-byte identical across two identical runs once the event-log
clock is injected (wall time is the only nondeterministic input).
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs import export
from repro.obs.events import EventLog
from repro.obs.prometheus import parse_exposition
from repro.serve import EstimationServer, EstimationService, ServeClient

from .conftest import stepping_clock


@pytest.fixture(autouse=True)
def fresh_obs():
    """Telemetry tests own the global obs state; leave it clean."""
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture()
def sqls(conjunctive_workload):
    return [q.to_sql() for q in conjunctive_workload.queries[:12]]


def qerror_labels(estimator, model_version: str) -> dict:
    """The label tuple the service stamps on serve.qerror."""
    featurizer = estimator.featurizer
    return {"model": model_version, "table": featurizer.table_name,
            "qft": type(featurizer).__name__}


class TestWindowedDegradation:
    def test_qerror_p95_shifts_within_two_ticks(self, serve_estimator,
                                                sqls):
        service = EstimationService(serve_estimator, model_version="gb-a")
        labels = qerror_labels(serve_estimator, "gb-a")
        registry = obs.get_registry()
        window = registry.histogram("serve.qerror",
                                    label_names=("model", "table", "qft"),
                                    window_ticks=8)
        try:
            for sql in sqls[:8]:
                service.feedback(sql, true_cardinality=50.0, estimate=50.0)
            registry.advance_all()
            healthy = window.quantile(0.95, **labels)
            assert healthy == pytest.approx(1.0)

            tick_at_injection = registry.tick
            for sql in sqls[:4]:  # estimates suddenly off by 400x
                service.feedback(sql, true_cardinality=400.0, estimate=1.0)
            registry.advance_all()
            degraded = window.quantile(0.95, **labels)
            assert registry.tick - tick_at_injection <= 2
            assert degraded >= 100 * healthy
        finally:
            service.close()

    def test_qerror_slo_burns_after_degradation(self, serve_estimator,
                                                sqls):
        service = EstimationService(serve_estimator, model_version="gb-a",
                                    qerror_slo=10.0, slo_objective=0.99)
        slo = obs.get_registry().slo("serve.qerror.slo", target=10.0)
        try:
            for sql in sqls[:8]:
                service.feedback(sql, true_cardinality=50.0, estimate=50.0)
            assert slo.burn_rate("short") == 0.0
            for sql in sqls[:4]:
                service.feedback(sql, true_cardinality=400.0, estimate=1.0)
            # 4 of 12 observations blown at a 1% budget: burning hard.
            assert slo.burn_rate("short") > 10.0
        finally:
            service.close()

    def test_tick_every_advances_windows_automatically(self,
                                                       serve_estimator,
                                                       sqls):
        service = EstimationService(serve_estimator, model_version="gb-a",
                                    tick_every=2)
        try:
            for sql in sqls[:4]:
                service.feedback(sql, true_cardinality=10.0, estimate=10.0)
            assert obs.get_registry().tick == 2
        finally:
            service.close()

    def test_latency_window_partitions_by_cache_outcome(self,
                                                        serve_estimator,
                                                        sqls):
        service = EstimationService(serve_estimator, model_version="gb-a",
                                    max_wait_ms=0.0, cache_size=32)
        window = obs.get_registry().histogram(
            "serve.request.seconds", label_names=("model", "cache"),
            window_ticks=8)
        try:
            service.estimate(sqls[0])   # miss
            service.estimate(sqls[0])   # hit
            assert window.window_count(model="gb-a", cache="miss") == 1
            assert window.window_count(model="gb-a", cache="hit") == 1
        finally:
            service.close()


class TestExemplars:
    def test_worst_qerror_sql_is_retained(self, serve_estimator, sqls):
        service = EstimationService(serve_estimator, model_version="gb-a")
        try:
            service.feedback(sqls[0], true_cardinality=10.0, estimate=10.0)
            service.feedback(sqls[1], true_cardinality=900.0, estimate=3.0)
            service.feedback(sqls[2], true_cardinality=60.0, estimate=3.0)
        finally:
            service.close()
        worst = obs.get_event_log().exemplars.worst()
        assert worst is not None
        assert worst["sql"] == sqls[1]
        assert worst["qerror"] == pytest.approx(300.0)


class TestTracedRoundTrip:
    def test_client_server_spans_stitch_into_one_trace(self,
                                                       serve_estimator,
                                                       sqls):
        obs.enable()
        service = EstimationService(serve_estimator, model_version="gb-a",
                                    max_wait_ms=0.0, cache_size=32)
        with EstimationServer(service) as server:
            client = ServeClient(server.url)
            client.estimate(sqls[0])
            client.estimate_batch(sqls[:3])
            client.feedback(sqls[0], true_cardinality=25.0, estimate=5.0)

        spans = export.span_records(obs.get_tracer().finished())
        client_spans = [s for s in spans
                        if s["name"].startswith("serve.client.")]
        server_spans = [s for s in spans
                        if not s["name"].startswith("serve.client.")]
        assert client_spans and server_spans

        events = export.stitch_chrome_trace([("client", client_spans),
                                             ("server", server_spans)])
        processes = {e["args"]["name"] for e in events
                     if e.get("ph") == "M" and e["name"] == "process_name"}
        assert processes == {"client", "server"}
        flows = [e for e in events if e.get("cat") == "trace"]
        starts = {e["id"] for e in flows if e["ph"] == "s"}
        finishes = {e["id"] for e in flows if e["ph"] == "f"}
        assert starts and starts == finishes
        # Causality arrows run from the client process into the server.
        assert {e["pid"] for e in flows if e["ph"] == "s"} == {0}
        assert {e["pid"] for e in flows if e["ph"] == "f"} == {1}

        # The wide events carry the same client-minted trace ids.
        event_ids = {e["trace_id"] for e in obs.get_event_log().events()}
        assert event_ids and event_ids <= starts

    def test_stitched_trace_writes_one_json_document(self, serve_estimator,
                                                     sqls, tmp_path):
        obs.enable()
        service = EstimationService(serve_estimator, model_version="gb-a",
                                    max_wait_ms=0.0)
        with EstimationServer(service) as server:
            ServeClient(server.url).estimate(sqls[0])
        spans = export.span_records(obs.get_tracer().finished())
        client_spans = [s for s in spans
                        if s["name"].startswith("serve.client.")]
        server_spans = [s for s in spans
                        if not s["name"].startswith("serve.client.")]
        out = tmp_path / "stitched.json"
        count = export.write_stitched_chrome_trace(
            [("client", client_spans), ("server", server_spans)], out)
        assert count > 0
        import json
        document = json.loads(out.read_text(encoding="utf-8"))
        assert len(document["traceEvents"]) == count


class TestPrometheusScrape:
    def _run_once(self, serve_estimator, sqls) -> str:
        obs.reset()
        obs.set_event_log(EventLog(clock_ns=stepping_clock()))
        service = EstimationService(serve_estimator, model_version="gb-a",
                                    max_wait_ms=0.0, cache_size=64,
                                    tick_every=4)
        with EstimationServer(service) as server:
            client = ServeClient(server.url)
            for sql in sqls[:4]:
                client.estimate(sql)
            client.estimate(sqls[0])   # one cache hit
            for sql in sqls[:3]:
                client.feedback(sql, true_cardinality=100.0, estimate=4.0)
            return client.metrics_prometheus()

    def test_scrape_round_trips_through_the_validator(self,
                                                      serve_estimator,
                                                      sqls):
        families = parse_exposition(self._run_once(serve_estimator, sqls))
        assert families["serve_requests_total"]["type"] == "counter"
        assert families["serve_request_seconds"]["type"] == "histogram"
        assert families["serve_qerror"]["type"] == "histogram"
        assert families["serve_qerror_window"]["type"] == "summary"
        labels = [label_set for _, label_set, _ in
                  families["serve_qerror_window"]["samples"]]
        assert any(label_set.get("model") == "gb-a"
                   for label_set in labels)
        burn = {label_set["window"]: value for _, label_set, value in
                families["serve_qerror_slo_burn_rate"]["samples"]}
        assert set(burn) == {"short", "long"}
        assert burn["short"] > 1.0   # 3 bad feedbacks at a 1% budget

    def test_identical_runs_scrape_identical_bytes(self, serve_estimator,
                                                   sqls):
        first = self._run_once(serve_estimator, sqls)
        second = self._run_once(serve_estimator, sqls)
        assert first == second
        assert "serve_request_seconds_window" in first


class TestLabelValues:
    def test_separators_in_a_model_version_stay_one_label(
            self, serve_estimator, sqls):
        service = EstimationService(serve_estimator,
                                    model_version="gb,cache=x",
                                    max_wait_ms=0.0, cache_size=8)
        with EstimationServer(service) as server:
            client = ServeClient(server.url)
            client.estimate(sqls[0])   # miss
            client.estimate(sqls[0])   # hit
            families = parse_exposition(client.metrics_prometheus())
        for family in ("serve_request_seconds", "serve_request_seconds_window"):
            series = {(labels["model"], labels["cache"])
                      for _, labels, _ in families[family]["samples"]}
            assert series == {("gb,cache=x", "hit"), ("gb,cache=x", "miss")}
