"""Router behaviour: affinity, failover, batch fan-out, merged telemetry."""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse

import pytest

from repro import obs
from repro.fleet import FleetRouter, RouterServer, WorkerPool
from repro.obs.prometheus import parse_exposition, render_snapshots
from repro.serve import ServeClient, ServeClientError
from repro.sql.parser import fingerprint_sql, parse_query


class TestRouting:
    def test_statement_affinity(self, local_fleet, fleet_sqls):
        _, router = local_fleet(workers=4)
        owners = [router.estimate(fleet_sqls[0])["worker_id"]
                  for _ in range(5)]
        assert len(set(owners)) == 1  # same template → same worker

    def test_templates_spread_across_workers(self, local_fleet, fleet_sqls):
        _, router = local_fleet(workers=2)
        owners = {router.estimate(sql)["worker_id"] for sql in fleet_sqls}
        assert owners == {"w0", "w1"}

    def test_response_carries_worker_and_model_version(
            self, local_fleet, fleet_sqls):
        _, router = local_fleet(workers=2, version="vtest")
        response = router.estimate(fleet_sqls[0])
        assert response["worker_id"] in ("w0", "w1")
        assert response["model_version"] == "vtest"
        assert response["estimate"] > 0

    def test_matches_single_worker_estimates(self, local_fleet, fleet_sqls):
        _, single = local_fleet(workers=1)
        _, sharded = local_fleet(workers=4)
        want = [single.estimate(sql)["estimate"] for sql in fleet_sqls[:8]]
        got = [sharded.estimate(sql)["estimate"] for sql in fleet_sqls[:8]]
        assert got == want


class TestFailover:
    def test_sibling_serves_when_owner_dies(self, local_fleet, fleet_sqls):
        supervisor, router = local_fleet(workers=2, retries=1)
        before = obs.get_registry().counter("fleet.failovers_total").value
        dead = supervisor.pool.get("w0")
        dead.fail()
        responses = [router.estimate(sql) for sql in fleet_sqls]
        assert all(r["worker_id"] == "w1" for r in responses
                   if r["worker_id"] != "w0")
        assert all(r["estimate"] > 0 for r in responses)
        after = obs.get_registry().counter("fleet.failovers_total").value
        assert after > before

    def test_owner_stopping_mid_forward_fails_over(
            self, local_fleet, fleet_sqls, fleet_estimator, monkeypatch):
        """The owner stops between the forward's header write and its
        body write: the request gets the right estimate (from a
        sibling, once the owner closes the half-read request
        unanswered), or a typed 5xx, never the owner's 4xx."""
        supervisor, router = local_fleet(workers=2, retries=1)
        sql = fleet_sqls[0]
        owner = supervisor.pool.preference(fingerprint_sql(sql)[0], 1)[0]
        owner_port = urllib.parse.urlsplit(owner.url).port
        stoppers: list[threading.Thread] = []
        send = http.client.HTTPConnection.send

        def send_then_stop_owner(connection, data):
            send(connection, data)
            if (connection.port == owner_port and not stoppers
                    and bytes(data).startswith(b"POST /v1/estimate ")):
                time.sleep(0.2)  # the owner now waits for the body
                stoppers.append(threading.Thread(target=owner.drain))
                stoppers[0].start()
                time.sleep(0.2)

        monkeypatch.setattr(http.client.HTTPConnection, "send",
                            send_then_stop_owner)
        with RouterServer(router) as server, \
                ServeClient(server.url) as client:
            try:
                response = client.estimate(sql)
            except ServeClientError as exc:
                assert 500 <= exc.status < 600, exc
            else:
                assert response["estimate"] == float(
                    fleet_estimator.estimate_batch([parse_query(sql)])[0])
        stoppers[0].join(10)
        assert not stoppers[0].is_alive()

    def test_no_workers_is_transport_error(self):
        router = FleetRouter(WorkerPool())
        with pytest.raises(ServeClientError) as excinfo:
            router.estimate("SELECT count(*) FROM forest WHERE "
                            "Elevation > 1000")
        assert excinfo.value.status == 0

    def test_worker_http_errors_propagate_unretried(self, local_fleet):
        _, router = local_fleet(workers=2)
        with pytest.raises(ServeClientError) as excinfo:
            router.estimate("SELECT broken !!!")
        assert excinfo.value.status == 400


class TestBatch:
    def test_batch_splits_merge_in_request_order(self, local_fleet,
                                                 fleet_sqls):
        _, router = local_fleet(workers=4)
        singles = [router.estimate(sql)["estimate"] for sql in fleet_sqls]
        batch = router.estimate_batch(fleet_sqls)
        assert batch["estimates"] == singles
        assert set(batch["workers"]) <= {"w0", "w1", "w2", "w3"}
        assert len(batch["workers"]) >= 2  # genuinely fanned out

    def test_empty_batch(self, local_fleet):
        _, router = local_fleet(workers=2)
        assert router.estimate_batch([]) == {"estimates": [],
                                             "workers": []}


class TestFeedback:
    def test_feedback_routes_to_owner(self, local_fleet, fleet_workload):
        _, router = local_fleet(workers=2)
        sql, true_cardinality = fleet_workload[0]
        owner = router.estimate(sql)["worker_id"]
        response = router.feedback(sql, true_cardinality)
        assert response["worker_id"] == owner
        assert response["qerror"] >= 1.0


class TestTelemetry:
    def test_merged_json_metrics(self, local_fleet, fleet_sqls):
        _, router = local_fleet(workers=2)
        for sql in fleet_sqls[:8]:
            router.estimate(sql)
        snapshot = router.metrics()
        assert snapshot["router"]["fleet.requests_total"]["value"] >= 8
        assert set(snapshot["workers"]) == {"w0", "w1"}
        for worker in snapshot["workers"].values():
            assert "serve.requests_total" in worker

    def test_merged_prometheus_scrape_is_valid(self, local_fleet,
                                               fleet_sqls):
        _, router = local_fleet(workers=2)
        for sql in fleet_sqls[:8]:
            router.estimate(sql)
        page = router.metrics_prometheus()
        parsed = parse_exposition(page)  # strict: raises on a bad page
        sources = set()
        for family in parsed.values():
            for _, labels, _ in family["samples"]:
                assert "worker" in labels
                sources.add(labels["worker"])
        assert {"router", "w0", "w1"} <= sources
        windowed = {labels["worker"] for _, labels, _ in
                    parsed["serve_request_seconds_window"]["samples"]}
        assert {"w0", "w1"} <= windowed

    def test_merge_rejects_conflicting_types(self):
        counter = {"x.total": {"kind": "counter", "value": 1}}
        gauge = {"x_total": {"kind": "gauge", "value": 2.0}}
        with pytest.raises(ValueError, match="family 'x_total'"):
            render_snapshots({"a": counter, "b": gauge},
                             source_label="worker")

    def test_health_probes_every_worker(self, local_fleet):
        supervisor, router = local_fleet(workers=2)
        supervisor.pool.get("w1").fail()
        rows = {row["worker_id"]: row for row in router.health()}
        assert rows["w0"]["healthy"] is True
        assert rows["w1"]["healthy"] is False


class TestRouterServer:
    @pytest.fixture()
    def served(self, local_fleet):
        _, router = local_fleet(workers=2)
        server = RouterServer(router)
        server.start()
        yield server
        server.stop()

    def test_http_surface(self, served, fleet_sqls, fleet_workload):
        with ServeClient(served.url) as client:
            assert client.healthz() == {"status": "ok", "workers": 2}
            response = client.estimate(fleet_sqls[0])
            assert response["estimate"] > 0
            assert response["worker_id"] in ("w0", "w1")
            detail = client.estimate_batch_detail(fleet_sqls[:6])
            assert len(detail["estimates"]) == 6
            assert detail["workers"]
            sql, true_cardinality = fleet_workload[0]
            assert client.feedback(sql, true_cardinality)["qerror"] >= 1.0
            status = client.get_json("/fleet/status")
            assert status["rollout"] == {"state": "idle"}
            assert {row["worker_id"] for row in status["workers"]} \
                == {"w0", "w1"}
            snapshot = json.loads(client.metrics())
            assert set(snapshot["workers"]) == {"w0", "w1"}
            parse_exposition(client.metrics_prometheus())

    def test_rollout_endpoints_without_manager_are_400(self, served):
        with ServeClient(served.url) as client:
            for path in ("/fleet/rollout", "/fleet/promote",
                         "/fleet/rollback"):
                with pytest.raises(ServeClientError) as excinfo:
                    client.post_json(path, {})
                assert excinfo.value.status == 400

    def test_bad_payload_is_400(self, served):
        with ServeClient(served.url) as client:
            with pytest.raises(ServeClientError) as excinfo:
                client.post_json("/v1/estimate", {"nope": 1})
            assert excinfo.value.status == 400

    def test_unknown_endpoint_is_404(self, served):
        with ServeClient(served.url) as client:
            with pytest.raises(ServeClientError) as excinfo:
                client.get_json("/fleet/bogus")
            assert excinfo.value.status == 404
