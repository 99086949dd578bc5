"""The checker and the load loops, against a stub HTTP server."""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from benchlib.loadgen import (
    Checker,
    closed_loop,
    open_loop,
    open_schedule,
    probe_passes,
)

REFERENCE = np.array([3.0, 10.5, 1.0, 250.25])
TRUTH = np.array([4.0, 0.0, 1.0, 100.0])
SQLS = [f"SELECT count(*) FROM t WHERE a >= {i}" for i in range(4)]


class _Stub(BaseHTTPRequestHandler):
    """Answers like ``repro serve``: the reference estimate of each
    statement, except statement ``wrong`` (one ulp off), after ``delay``."""

    protocol_version = "HTTP/1.1"
    delay = 0.0
    wrong = -1

    def log_message(self, *args) -> None:  # keep test output quiet
        pass

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        time.sleep(self.delay)

        def value(sql: str) -> float:
            index = SQLS.index(sql)
            served = REFERENCE[index]
            return float(np.nextafter(served, np.inf)
                         if index == self.wrong else served)

        if self.path == "/v1/estimate_batch":
            answer = {"estimates": [value(sql) for sql in body["sql"]]}
        elif self.path == "/v1/estimate":
            answer = {"estimate": value(body["sql"]), "cached": False}
        else:
            true = max(body["true_cardinality"], 1.0)
            estimate = max(body["estimate"], 1.0)
            answer = {"qerror": max(true / estimate, estimate / true),
                      "estimate": body["estimate"]}
        data = json.dumps(answer).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


@pytest.fixture
def stub():
    def start(delay: float = 0.0, wrong: int = -1) -> str:
        handler = type("Handler", (_Stub,), {"delay": delay, "wrong": wrong})
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        server.daemon_threads = True
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append((server, thread))
        return f"http://127.0.0.1:{server.server_address[1]}"

    servers: list = []
    yield start
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def test_checker_flags_a_perturbed_estimate():
    checker = Checker(REFERENCE, TRUTH)
    indices = np.arange(4)
    assert checker.estimates(indices, REFERENCE.tolist())
    for position in range(4):
        served = REFERENCE.copy()
        served[position] = np.nextafter(served[position], np.inf)
        assert not checker.estimates(indices, served.tolist())
    assert not checker.estimates(indices, [3.0, float("nan"), 1.0, 250.25])
    assert not checker.estimates(indices, REFERENCE[:3].tolist())
    assert not checker.estimates(indices, ["3.0", None, 1, 2])


def test_checker_recomputes_feedback_qerror():
    checker = Checker(REFERENCE, TRUTH)
    # truth 0 floors to 1, as the server's q-error convention does
    good = {"qerror": 10.5, "estimate": 10.5}
    assert checker.feedback(1, 10.5, good)
    assert not checker.feedback(1, 10.5, {**good, "qerror": 10.500000001})
    assert not checker.feedback(1, 10.5, {**good, "estimate": 10.0})
    assert not checker.feedback(1, 10.5, {"estimate": 10.5})


def test_closed_loop_counts_wrong_answers_and_keeps_going(stub):
    url = stub(wrong=2)
    requests = [np.array([0, 1]), np.array([2, 3])]
    ops = closed_loop(url, SQLS, requests, Checker(REFERENCE, TRUTH),
                      seconds=0.3, min_requests=20, max_seconds=5.0)
    assert len(ops) >= 20
    assert {op.ok for op in ops if op.request == 0} == {True}
    assert {op.ok for op in ops if op.request == 1} == {False}


def test_closed_loop_counts_transport_errors():
    ops = closed_loop("http://127.0.0.1:9", SQLS, [np.arange(4)],
                      Checker(REFERENCE, TRUTH), seconds=0.1,
                      min_requests=5, max_seconds=2.0)
    assert len(ops) >= 5 and not any(op.ok for op in ops)


def test_open_loop_reports_lateness_under_overload(stub):
    checker = Checker(REFERENCE, TRUTH)
    rng = np.random.default_rng(7)
    # 2 connections x 20 ms service time serve 100 ops/s at most.
    url = stub(delay=0.02)
    plan, offsets = open_schedule(rng, 300.0, 0.5, len(SQLS))
    ops, unsent = open_loop(url, SQLS, plan, offsets, checker)
    assert all(op.ok for op in ops)
    late = sorted(op.late_ms for op in ops)
    assert late[-1] > 50.0
    assert all(op.latency_ms >= op.late_ms for op in ops)
    assert not probe_passes(ops, unsent)

    fast = stub()
    plan, offsets = open_schedule(rng, 40.0, 0.5, len(SQLS))
    ops, unsent = open_loop(fast, SQLS, plan, offsets, checker)
    assert unsent == 0 and all(op.ok for op in ops)
    assert {op.kind for op in ops} == {"estimate", "feedback"}
    assert max(op.late_ms for op in ops) < 50.0
