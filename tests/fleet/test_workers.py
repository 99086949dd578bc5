"""Worker pool semantics, supervisor crash-restarts, and the real
subprocess worker's start and stop paths."""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.fleet import (
    LocalWorker,
    ProcessWorker,
    WorkerError,
    WorkerPool,
    WorkerSupervisor,
)
from repro.serve import ServeClient

from .conftest import make_service


def _wait_until(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


class TestWorkerPool:
    def test_add_get_remove(self, fleet_estimator):
        pool = WorkerPool()
        worker = LocalWorker("w0", make_service(fleet_estimator)).start()
        try:
            pool.add(worker)
            assert pool.ids() == ("w0",)
            assert pool.get("w0") is worker
            assert len(pool) == 1
            assert pool.remove("w0") is worker
            assert pool.get("w0") is None
        finally:
            worker.terminate()

    def test_rebind_same_id_keeps_ring_shape(self, fleet_estimator):
        pool = WorkerPool()
        first = LocalWorker("w0", make_service(fleet_estimator)).start()
        second = LocalWorker("w0", make_service(fleet_estimator)).start()
        try:
            pool.add(first)
            placement = [pool.preference(f"k{i}", 1)[0].worker_id
                         for i in range(16)]
            pool.add(second)  # re-bind: same id, fresh handle
            assert pool.get("w0") is second
            assert [pool.preference(f"k{i}", 1)[0].worker_id
                    for i in range(16)] == placement
        finally:
            first.terminate()
            second.terminate()

    def test_swap_replaces_membership_and_returns_displaced(
            self, fleet_estimator):
        pool = WorkerPool()
        old = [LocalWorker(f"w{i}", make_service(fleet_estimator)).start()
               for i in range(2)]
        new = [LocalWorker(f"c{i}", make_service(fleet_estimator)).start()
               for i in range(2)]
        try:
            for handle in old:
                pool.add(handle)
            displaced = pool.swap(new)
            assert [h.worker_id for h in displaced] == ["w0", "w1"]
            assert pool.ids() == ("c0", "c1")
            owner = pool.preference("some-key", 1)[0]
            assert owner.worker_id in ("c0", "c1")
        finally:
            for handle in old + new:
                handle.terminate()


class TestLocalWorker:
    def test_lifecycle_and_http_surface(self, fleet_estimator, fleet_sqls):
        worker = LocalWorker("w0", make_service(fleet_estimator)).start()
        assert worker.alive()
        assert worker.describe()["kind"] == "LocalWorker"
        response = worker.client.estimate(fleet_sqls[0])
        assert response["estimate"] > 0
        worker.client.estimate_batch(fleet_sqls[:4])
        worker.drain()
        assert not worker.alive()

    def test_client_before_start_raises(self, fleet_estimator):
        worker = LocalWorker("w0", make_service(fleet_estimator))
        with pytest.raises(WorkerError, match="no URL"):
            worker.client


class TestSupervisor:
    def test_restarts_failed_worker_under_same_id(self, fleet_estimator):
        def factory(worker_id: str) -> LocalWorker:
            return LocalWorker(worker_id,
                               make_service(fleet_estimator)).start()

        supervisor = WorkerSupervisor(factory, poll_interval=0.02,
                                      backoff_base=0.01, backoff_max=0.05)
        try:
            (original,) = supervisor.spawn(1)
            supervisor.start()
            original.fail()
            assert _wait_until(
                lambda: (supervisor.pool.get("w0") is not None
                         and supervisor.pool.get("w0") is not original
                         and supervisor.pool.get("w0").alive()))
            assert supervisor.restarts().get("w0", 0) >= 1
            replacement = supervisor.pool.get("w0")
            assert replacement.client.healthz() == {"status": "ok"}
        finally:
            supervisor.stop(drain=False)

    def test_forget_stops_supervision_without_touching_pool(
            self, fleet_estimator):
        def factory(worker_id: str) -> LocalWorker:
            return LocalWorker(worker_id,
                               make_service(fleet_estimator)).start()

        supervisor = WorkerSupervisor(factory, poll_interval=0.02,
                                      backoff_base=0.01, backoff_max=0.05)
        try:
            (worker,) = supervisor.spawn(1)
            supervisor.forget("w0")
            supervisor.start()
            worker.fail()
            time.sleep(0.2)  # several poll sweeps
            assert supervisor.pool.get("w0") is worker  # not replaced
            assert supervisor.restarts() == {}
        finally:
            supervisor.stop(drain=False)

    def test_spawn_starts_workers_concurrently(self, fleet_estimator):
        # Each start waits until both have begun: one at a time, the
        # first start would time out on the barrier.
        barrier = threading.Barrier(2, timeout=5)

        def factory(worker_id: str) -> LocalWorker:
            barrier.wait()
            return LocalWorker(worker_id,
                               make_service(fleet_estimator)).start()

        supervisor = WorkerSupervisor(factory)
        try:
            handles = supervisor.spawn(2)
            assert [handle.worker_id for handle in handles] == ["w0", "w1"]
            assert supervisor.pool.ids() == ("w0", "w1")
            assert [handle.worker_id for handle in supervisor.pool.handles()] \
                == ["w0", "w1"]
        finally:
            supervisor.stop(drain=False)

    def test_failed_spawn_terminates_the_started_workers(
            self, fleet_estimator):
        started: list[LocalWorker] = []
        w0_started = threading.Event()

        def factory(worker_id: str) -> LocalWorker:
            if worker_id == "w1":
                assert w0_started.wait(5)  # fail only once w0 is up
                raise WorkerError("w1 cannot start")
            worker = LocalWorker(worker_id,
                                 make_service(fleet_estimator)).start()
            started.append(worker)
            w0_started.set()
            return worker

        supervisor = WorkerSupervisor(factory, poll_interval=0.02)
        with pytest.raises(WorkerError, match="w1 cannot start"):
            supervisor.spawn(2)
        assert [worker.worker_id for worker in started] == ["w0"]
        assert not started[0].alive()
        assert len(supervisor.pool) == 0
        supervisor.start()
        time.sleep(0.1)  # several poll sweeps: nothing to restart
        supervisor.stop(drain=False)
        assert supervisor.restarts() == {}

    def test_context_manager_drains_fleet(self, fleet_estimator):
        def factory(worker_id: str) -> LocalWorker:
            return LocalWorker(worker_id,
                               make_service(fleet_estimator)).start()

        with WorkerSupervisor(factory, poll_interval=0.02) as supervisor:
            handles = supervisor.spawn(2)
            assert all(handle.alive() for handle in handles)
        assert all(not handle.alive() for handle in handles)
        assert len(supervisor.pool) == 0


def _process_worker(tmp_path, estimator) -> ProcessWorker:
    """A started subprocess worker serving ``estimator``."""
    from repro.serve import ModelRegistry

    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(estimator, "proc")
    return ProcessWorker("p0", registry.root, "proc",
                         start_timeout=120.0).start()


class TestProcessWorker:
    """End-to-end: a real subprocess worker, served over HTTP."""

    def test_spawn_serve_warm_drain(self, tmp_path, fleet_estimator,
                                    fleet_sqls):
        from repro.serve import ModelRegistry

        registry = ModelRegistry(tmp_path / "registry")
        published = registry.publish(fleet_estimator, "proc")
        worker = ProcessWorker("p0", registry.root, "proc",
                               start_timeout=120.0).start()
        try:
            assert worker.alive()
            assert worker.pid is not None
            assert worker.model_version == published.label()
            with ServeClient(worker.url) as client:
                response = client.estimate(fleet_sqls[0])
                assert response["estimate"] > 0
            worker.client.estimate_batch(fleet_sqls[:2])
        finally:
            worker.drain()
        # drain() reaped the child (checked before alive(), which polls
        # and would reap it too): it is no longer ours to wait for.
        with pytest.raises(ChildProcessError):
            os.waitpid(worker.pid, os.WNOHANG)
        assert not worker.alive()
        assert worker._proc.returncode == 0  # drained, not killed

    def test_sigterm_drains_to_exit_code_zero(self, tmp_path,
                                              fleet_estimator):
        worker = _process_worker(tmp_path, fleet_estimator)
        try:
            os.kill(worker.pid, signal.SIGTERM)
            assert worker._proc.wait(timeout=30.0) == 0
        finally:
            worker.terminate()

    def test_terminate_kills_a_stopped_worker_at_once(self, tmp_path,
                                                      fleet_estimator):
        worker = _process_worker(tmp_path, fleet_estimator)
        os.kill(worker.pid, signal.SIGSTOP)  # it can act on nothing now
        began = time.monotonic()
        worker.terminate()
        assert time.monotonic() - began < 2.0
        with pytest.raises(ChildProcessError):
            os.waitpid(worker.pid, os.WNOHANG)
        assert worker._proc.returncode == -signal.SIGKILL

    def test_child_that_dies_while_starting_fails_at_once(self, tmp_path):
        from repro.serve import ModelRegistry

        registry = ModelRegistry(tmp_path / "registry")
        worker = ProcessWorker("p0", registry.root, "missing",
                               start_timeout=60.0)
        began = time.monotonic()
        with pytest.raises(WorkerError, match="exit code 1"):
            worker.start()
        assert time.monotonic() - began < 10.0
        assert not worker.alive()
