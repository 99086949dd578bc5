"""Raw-socket tests of the shared JSON handler's request-body handling.

``repro serve`` and the fleet router stand on the same
:class:`~repro.serve.http.JsonRequestHandler`, so every case runs
against both.  The client side is a bare socket: the point is what the
server does with a ``Content-Length`` no well-behaved client sends, and
with a body a graceful stop cuts short.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.fleet import FleetRouter, RouterServer, WorkerPool
from repro.serve import EstimationServer, EstimationService
from repro.serve.http import MAX_BODY_BYTES

#: A reply must arrive, and the connection close, well within this.
TIMEOUT_S = 5.0


@pytest.fixture(params=["serve", "router"])
def server(request, serve_estimator):
    """A started server of either kind; stopped afterwards."""
    if request.param == "serve":
        started = EstimationServer(EstimationService(serve_estimator))
    else:
        router = FleetRouter(WorkerPool())
        request.addfinalizer(router.close)
        started = RouterServer(router)
    started.start()
    yield started
    started.stop()


def exchange(server, payload: bytes) -> bytes:
    """Send raw bytes on a fresh keep-alive socket; read until the
    server closes it (a timeout here means it never did)."""
    with socket.create_connection((server.host, server.port),
                                  timeout=TIMEOUT_S) as sock:
        sock.sendall(payload)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def post_head(length: str) -> bytes:
    return (f"POST /v1/estimate HTTP/1.1\r\nHost: test\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {length}\r\n\r\n").encode("ascii")


def parse_reply(raw: bytes) -> tuple[int, dict, dict]:
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {name.lower(): value.strip() for name, _, value
               in (line.partition(":") for line in lines[1:])}
    return status, headers, json.loads(body)


class TestBodyBound:
    def test_negative_length_is_400_and_closes(self, server):
        raw = exchange(server, post_head("-1"))
        status, headers, body = parse_reply(raw)
        assert status == 400
        assert headers["connection"] == "close"
        assert "Content-Length" in body["error"]

    def test_non_integer_length_is_400_and_closes(self, server):
        status, headers, _ = parse_reply(exchange(server, post_head("ten")))
        assert status == 400
        assert headers["connection"] == "close"

    def test_over_cap_length_is_413_and_closes(self, server):
        # int() refuses strings of more than 4,300 digits.
        for length in (str(MAX_BODY_BYTES + 1), "9" * 5000):
            raw = exchange(server, post_head(length))
            status, headers, body = parse_reply(raw)
            assert raw.count(b"HTTP/1.1 ") == 1
            assert status == 413
            assert headers["connection"] == "close"
            assert str(MAX_BODY_BYTES) in body["error"]

    def test_unread_body_is_never_parsed_as_a_request(self, server):
        smuggled = (b"GET /healthz HTTP/1.1\r\nHost: test\r\n"
                    b"Content-Length: 0\r\n\r\n")
        raw = exchange(server, post_head("-1") + smuggled)
        assert raw.count(b"HTTP/1.1 ") == 1
        assert parse_reply(raw)[0] == 400

    def test_server_keeps_serving_after_a_rejection(self, server):
        exchange(server, post_head("-1"))
        healthz = (b"GET /healthz HTTP/1.1\r\nHost: test\r\n"
                   b"Connection: close\r\n\r\n")
        status, _, body = parse_reply(exchange(server, healthz))
        assert status == 200 and body["status"] == "ok"


class TestDrainMidBody:
    """``stop()`` while a request's body is still on its way: the
    server half-closes the connection, so the handler reads a body
    shorter than its ``Content-Length``.  That is a dead connection,
    not a bad request: no answer (a transport error the caller may
    re-send), or a typed 5xx, and never a 4xx.  (A handler that had
    not yet registered when ``stop()`` ran reads the whole body and
    answers it, which is fine too.)"""

    def test_half_read_request_gets_no_4xx(self, server):
        body = json.dumps({"sql": "SELECT count(*) FROM forest "
                                  "WHERE A1 > 2500"}).encode("utf-8")
        stopper = threading.Thread(target=server.stop)
        with socket.create_connection((server.host, server.port),
                                      timeout=TIMEOUT_S) as sock:
            sock.sendall(post_head(str(len(body))))
            time.sleep(0.2)
            stopper.start()
            time.sleep(0.2)
            chunks = []
            try:
                sock.sendall(body)
                while chunk := sock.recv(65536):
                    chunks.append(chunk)
            except (BrokenPipeError, ConnectionResetError):
                pass
        stopper.join(TIMEOUT_S)
        assert not stopper.is_alive()
        raw = b"".join(chunks)
        if raw:
            assert not 400 <= parse_reply(raw)[0] < 500, raw


class TestKeepAliveUnchanged:
    def test_bounded_bodies_share_one_connection(self, serve_estimator,
                                                 conjunctive_workload):
        sql = conjunctive_workload.queries[0].to_sql()
        body = json.dumps({"sql": sql}).encode("utf-8")
        request = post_head(str(len(body))) + body
        last = (b"GET /healthz HTTP/1.1\r\nHost: test\r\n"
                b"Connection: close\r\n\r\n")
        with EstimationServer(
                EstimationService(serve_estimator)) as started:
            raw = exchange(started, request + request + last)
        assert raw.count(b"HTTP/1.1 200") == 3
        assert raw.count(b'"cached": true') == 1
