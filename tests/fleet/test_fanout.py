"""The router's batch fan-out: one thread, one HTTP path, and the fault
contract of a batch whose owner dies or stalls mid-request.

``FleetRouter.estimate_batch`` sends every owner its sub-batch from the
calling thread and only then reads the answers.  A batch is answered
whole, every position exactly once, in request order and bitwise equal
to ``estimate_batch``, or refused whole with a typed error: a 503 with
``Retry-After`` when no worker could serve a group, or the 4xx/503 a
worker answered.
"""

from __future__ import annotations

import http.client
import os
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.fleet import FleetRouter, ProcessWorker, RouterServer, WorkerPool
from repro.fleet.workers import start_workers
from repro.serve import ServeClient, ServeClientError
from repro.serve.server import ServiceUnavailableError
from repro.sql.parser import fingerprint_sql, parse_query


def _failovers() -> float:
    return obs.get_registry().counter("fleet.failovers_total").value


def _owner(pool: WorkerPool, sql: str):
    return pool.preference(fingerprint_sql(sql)[0], 1)[0]


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _wait_until(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def answered_once_or_refused(client: ServeClient, sqls: list[str],
                             estimator) -> dict | None:
    """The batch's answer through the router, held to the contract: a
    200 answers every position once, in order, bitwise equal to
    ``estimate_batch``; the only refusal allowed is a whole-request 503
    with ``Retry-After`` (returns ``None``)."""
    try:
        detail = client.estimate_batch_detail(sqls)
    except ServeClientError as exc:
        assert exc.status == 503 and exc.retry_after is not None, exc
        return None
    expected = estimator.estimate_batch([parse_query(sql) for sql in sqls])
    assert len(detail["estimates"]) == len(sqls)
    assert np.array_equal(_bits(detail["estimates"]), _bits(expected))
    return detail


class TestOneThread:
    def test_fan_out_starts_no_thread(self, local_fleet, fleet_sqls):
        supervisor, router = local_fleet(workers=4)
        # This thread's kept-alive sockets to every worker, and the
        # worker-side threads serving them, exist before the batch.
        for handle in supervisor.pool.handles():
            handle.client.healthz()
        before = set(threading.enumerate())
        batch = router.estimate_batch(fleet_sqls)
        assert len(batch["workers"]) >= 2
        assert set(threading.enumerate()) == before

    def test_stale_socket_is_resent_to_the_same_worker(
            self, local_fleet, fleet_sqls, monkeypatch):
        """A worker closed its idle kept-alive socket between two
        batches: the sub-batch goes once more to the same worker on a
        fresh connection, and no failover is counted."""
        supervisor, router = local_fleet(workers=2)
        want = router.estimate_batch(fleet_sqls)
        victim = _owner(supervisor.pool, fleet_sqls[0])
        httpd = victim._server._httpd
        with httpd._repro_handlers_lock:
            handlers = list(httpd._repro_handlers)
        assert handlers
        for handler in handlers:
            handler.connection.shutdown(socket.SHUT_RD)
        assert _wait_until(lambda: not httpd._repro_handlers)
        connects: list[int] = []
        connect = http.client.HTTPConnection.connect
        monkeypatch.setattr(http.client.HTTPConnection, "connect",
                            lambda conn: connects.append(conn.port)
                            or connect(conn))
        before = _failovers()
        assert router.estimate_batch(fleet_sqls) == want
        assert connects == [int(victim.url.rsplit(":", 1)[1])]
        assert _failovers() == before


class TestWorkerAnswers:
    @pytest.mark.parametrize("error, status", [
        (ValueError("refused by the test"), 400),
        (ServiceUnavailableError("saturated by the test"), 503),
    ])
    def test_error_propagates_once_every_answer_is_read(
            self, local_fleet, fleet_sqls, monkeypatch, error, status):
        """One owner answers a 4xx or 503: it propagates unretried, and
        the other sub-batch's answer was read first, so this thread's
        next batch finds every socket idle and counts no failover."""
        supervisor, router = local_fleet(workers=2)
        want = router.estimate_batch(fleet_sqls)
        assert len(want["workers"]) == 2
        victim = _owner(supervisor.pool, fleet_sqls[0])
        service = victim.service
        estimate = service.estimate_many_sql
        refused: list[int] = []

        def refuse_once(sqls, trace_id=None):
            if not refused:
                refused.append(len(sqls))
                raise error
            return estimate(sqls, trace_id=trace_id)

        monkeypatch.setattr(service, "estimate_many_sql", refuse_once)
        before = _failovers()
        with pytest.raises(ServeClientError) as excinfo:
            router.estimate_batch(fleet_sqls)
        assert excinfo.value.status == status
        assert router.estimate_batch(fleet_sqls) == want
        assert _failovers() == before


class TestFaultContract:
    def test_owner_killed_between_send_and_read(
            self, fleet_registry, fleet_sqls, fleet_estimator, monkeypatch):
        """The owner process is stopped before the router writes its
        sub-batch and SIGKILLed before the router reads the answer, so
        it never answers; the sibling serves the group."""
        workers = start_workers(
            lambda worker_id: ProcessWorker(
                worker_id, fleet_registry.root, "m",
                start_timeout=120.0).start(), ["p0", "p1"])
        pool = WorkerPool()
        for worker in workers:
            pool.add(worker)
        victim = _owner(pool, fleet_sqls[0])
        (sibling,) = [worker for worker in workers if worker is not victim]
        stopped: list[bool] = []
        killed: list[bool] = []
        send, receive = ServeClient.send, ServeClient.receive

        def stop_then_send(client, path, payload, trace_id=None):
            if client.base_url == victim.url and not stopped:
                os.kill(victim.pid, signal.SIGSTOP)
                stopped.append(True)
            return send(client, path, payload, trace_id=trace_id)

        def kill_then_receive(client, exchange):
            if client.base_url == victim.url and stopped and not killed:
                os.kill(victim.pid, signal.SIGKILL)
                killed.append(True)
                assert _wait_until(lambda: not victim.alive())
            return receive(client, exchange)

        monkeypatch.setattr(ServeClient, "send", stop_then_send)
        monkeypatch.setattr(ServeClient, "receive", kill_then_receive)
        try:
            with RouterServer(FleetRouter(pool, retries=1)) as server, \
                    ServeClient(server.url) as client:
                detail = answered_once_or_refused(client, fleet_sqls,
                                                  fleet_estimator)
            assert killed
            if detail is not None:
                assert detail["workers"] == [sibling.worker_id]
        finally:
            if stopped and not killed:
                os.kill(victim.pid, signal.SIGKILL)
            for worker in workers:
                worker.terminate()

    def test_owner_stalling_past_the_client_timeout(
            self, local_fleet, fleet_sqls, fleet_estimator, monkeypatch):
        """The owner's service blocks past the router's client timeout:
        the read times out and the sibling serves the group."""
        supervisor, router = local_fleet(workers=2)
        victim = _owner(supervisor.pool, fleet_sqls[0])
        (sibling,) = [handle for handle in supervisor.pool.handles()
                      if handle is not victim]
        victim._client = ServeClient(victim.url, timeout=0.5)
        release = threading.Event()
        service = victim.service
        estimate = service.estimate_many_sql

        def stall(sqls, trace_id=None):
            release.wait(10.0)
            return estimate(sqls, trace_id=trace_id)

        monkeypatch.setattr(service, "estimate_many_sql", stall)
        try:
            with RouterServer(router) as server, \
                    ServeClient(server.url) as client:
                began = time.monotonic()
                detail = answered_once_or_refused(client, fleet_sqls,
                                                  fleet_estimator)
                assert time.monotonic() - began < 5.0
            if detail is not None:
                assert detail["workers"] == [sibling.worker_id]
        finally:
            release.set()
