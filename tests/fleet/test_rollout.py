"""Canary rollout: telemetry-gated auto-promote, auto-rollback, and the
zero-downtime hot-swap under live traffic."""

from __future__ import annotations

import threading
import time

import pytest

from repro.fleet import LocalWorker, RolloutError, RolloutGate, RolloutManager
from repro.serve import ServeClient, ServeClientError

from .conftest import make_service


@pytest.fixture()
def rollout_fleet(local_fleet, fleet_registry, fleet_estimator):
    """Factory: ``(supervisor, router, manager, candidates)`` with the
    registry's ``latest`` pinned to v1 (the baseline) and candidate
    workers built at ``candidate_factor`` accuracy."""
    spawned: list[LocalWorker] = []

    def build(workers: int = 2, candidate_factor: float = 1.0,
              min_feedback: int = 8):
        supervisor, router = local_fleet(workers=workers, version="v1")
        fleet_registry.set_latest("m", 1)

        def candidate_factory(worker_id: str, version: int) -> LocalWorker:
            worker = LocalWorker(
                worker_id,
                make_service(fleet_estimator, factor=candidate_factor,
                             version=f"v{version}")).start()
            spawned.append(worker)
            return worker

        manager = RolloutManager(
            fleet_registry, "m", supervisor, candidate_factory,
            gate=RolloutGate(min_feedback=min_feedback,
                             max_qerror_ratio=1.25,
                             max_latency_burn=10.0))
        manager.bind(router)
        return supervisor, router, manager, spawned

    yield build
    for worker in spawned:
        worker.terminate()


def _drive_traffic(router, workload, manager,
                   until: str | None = None) -> None:
    """Estimate + feedback over the workload until the rollout settles."""
    for _ in range(4):  # cap: 4 x 48 feedbacks is ample for any gate here
        for sql, true_cardinality in workload:
            router.estimate(sql)
            router.feedback(sql, true_cardinality)
            if until is not None and manager.state == until:
                return
        if manager.state not in ("warming", "canary"):
            return


class TestGateDecisions:
    def test_healthy_candidate_auto_promotes(self, rollout_fleet,
                                             fleet_registry,
                                             fleet_workload):
        supervisor, router, manager, _ = rollout_fleet(candidate_factor=1.0)
        manager.begin(2)
        assert manager.state == "canary"
        assert supervisor.pool.ids() == ("w0", "w1")  # canary is off-path

        _drive_traffic(router, fleet_workload, manager, until="promoted")

        assert manager.state == "promoted"
        status = manager.status()
        assert status["decision"]["outcome"] == "promote"
        assert [h["state"] for h in status["history"]] \
            == ["warming", "canary", "promoted"]
        # The hot-swap actually happened, everywhere it must:
        assert supervisor.pool.ids() == ("c0", "c1")
        assert fleet_registry.resolve("m").version == 2
        response = router.estimate(fleet_workload[0][0])
        assert response["worker_id"] in ("c0", "c1")
        assert response["model_version"] == "v2"

    def test_degraded_candidate_auto_rolls_back(self, rollout_fleet,
                                                fleet_registry,
                                                fleet_workload):
        supervisor, router, manager, spawned = rollout_fleet(
            candidate_factor=200.0)
        manager.begin(2)

        _drive_traffic(router, fleet_workload, manager, until="rolled_back")

        assert manager.state == "rolled_back"
        decision = manager.status()["decision"]
        assert decision["outcome"] == "rollback"
        assert "q-error" in decision["reason"]
        # Baseline untouched, candidate torn down, latest re-pinned:
        assert supervisor.pool.ids() == ("w0", "w1")
        assert fleet_registry.resolve("m").version == 1
        assert all(not worker.alive() for worker in spawned)
        assert router.estimate(fleet_workload[0][0])["worker_id"] \
            in ("w0", "w1")

    def test_unreachable_candidate_rolls_back_immediately(
            self, rollout_fleet, fleet_registry, fleet_sqls):
        _, router, manager, spawned = rollout_fleet(workers=1)
        manager.begin(2)
        (candidate,) = spawned
        candidate.fail()
        for sql in fleet_sqls:
            router.estimate(sql)
            if manager.state != "canary":
                break
        assert manager.state == "rolled_back"
        assert "unreachable" in manager.status()["decision"]["reason"]
        assert fleet_registry.resolve("m").version == 1

    def test_begin_while_canary_is_rejected(self, rollout_fleet):
        _, _, manager, _ = rollout_fleet()
        manager.begin(2)
        with pytest.raises(RolloutError, match="already canary"):
            manager.begin(2)
        manager.rollback(reason="test cleanup")
        assert manager.state == "rolled_back"

    def test_promote_from_idle_is_rejected(self, rollout_fleet):
        _, _, manager, _ = rollout_fleet()
        with pytest.raises(RolloutError, match="cannot promote"):
            manager.promote()
        with pytest.raises(RolloutError, match="cannot roll back"):
            manager.rollback()

    def test_failed_candidate_spawn_settles_to_rolled_back(
            self, local_fleet, fleet_registry, fleet_sqls):
        supervisor, router = local_fleet(workers=1, version="v1")
        fleet_registry.set_latest("m", 1)

        def broken_factory(worker_id: str, version: int) -> LocalWorker:
            raise RuntimeError("no memory left")

        manager = RolloutManager(fleet_registry, "m", supervisor,
                                 broken_factory)
        manager.bind(router)
        with pytest.raises(RolloutError, match="failed to start"):
            manager.begin(2)
        assert manager.state == "rolled_back"
        assert router.estimate(fleet_sqls[0])["worker_id"] == "w0"

    def test_second_candidate_failing_terminates_every_candidate(
            self, local_fleet, fleet_registry, fleet_estimator, fleet_sqls):
        supervisor, router = local_fleet(workers=2, version="v1")
        fleet_registry.set_latest("m", 1)
        started: list[LocalWorker] = []

        def half_broken_factory(worker_id: str, version: int
                                ) -> LocalWorker:
            if worker_id == "c1":
                raise RuntimeError("no memory left")
            worker = LocalWorker(
                worker_id, make_service(fleet_estimator,
                                        version=f"v{version}")).start()
            started.append(worker)
            return worker

        manager = RolloutManager(fleet_registry, "m", supervisor,
                                 half_broken_factory)
        manager.bind(router)
        with pytest.raises(RolloutError, match="no memory left"):
            manager.begin(2)
        assert manager.state == "rolled_back"
        assert manager.status()["candidate_workers"] == []
        assert [worker.worker_id for worker in started] == ["c0"]
        assert not started[0].alive()
        assert supervisor.pool.ids() == ("w0", "w1")
        assert router.estimate(fleet_sqls[0])["worker_id"] in ("w0", "w1")


class TestHotSwapUnderLoad:
    """The headline guarantee: a full canary → promote cycle while
    concurrent clients hammer the router, with zero failed requests."""

    def test_zero_dropped_requests_across_promote(self, rollout_fleet,
                                                  fleet_workload,
                                                  fleet_sqls):
        from repro.fleet import RouterServer

        _, router, manager, _ = rollout_fleet(min_feedback=16)
        server = RouterServer(router)
        server.start()
        errors: list[BaseException] = []
        versions_seen: set[str] = set()
        stop = threading.Event()

        def hammer() -> None:
            with ServeClient(server.url) as client:
                while not stop.is_set():
                    for sql in fleet_sqls[:12]:
                        try:
                            response = client.estimate(sql)
                            versions_seen.add(response["model_version"])
                        except BaseException as exc:  # noqa: BLE001 — the test's whole point is that NOTHING lands here
                            errors.append(exc)
                            return

        threads = [threading.Thread(target=hammer, name=f"load-{i}")
                   for i in range(4)]
        try:
            for thread in threads:
                thread.start()
            with ServeClient(server.url) as control:
                document = control.post_json("/fleet/rollout",
                                             {"version": 2})
                assert document["state"] == "canary"
                deadline = time.monotonic() + 60.0
                while manager.state == "canary":
                    for sql, true_cardinality in fleet_workload:
                        control.feedback(sql, true_cardinality)
                        if manager.state != "canary":
                            break
                    assert time.monotonic() < deadline, manager.status()
                # Traffic keeps flowing across and after the swap:
                time.sleep(0.25)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
            server.stop()

        assert not errors, f"requests failed during hot-swap: {errors[:3]}"
        assert manager.state == "promoted", manager.status()
        assert versions_seen == {"v1", "v2"}  # both generations served
