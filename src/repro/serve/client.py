"""Minimal stdlib client for the ``repro serve`` HTTP API.

A thin ``http.client`` wrapper so tests, the serving benchmark, and
scripts can talk to an :class:`~repro.serve.server.EstimationServer`
without pulling in an HTTP library.  Errors surface as
:class:`ServeClientError` carrying the HTTP status and, for ``503``
rejections, the server's ``Retry-After`` hint.

The client holds one **persistent keep-alive connection**: every call
reuses the socket of the previous one, so a request costs one
round-trip instead of a TCP handshake plus a server handler-thread
spawn.  A connection the server has meanwhile closed (idle timeout,
restart) announces itself as a broken pipe or reset while the request
is written, or as ``RemoteDisconnected`` *before any response bytes*;
exactly those cases are transparently re-sent once on a fresh
connection — the request was never read, so the re-send cannot
double-execute it.  Connections are **thread-local**: a client shared
across threads gives each thread its own socket (HTTP/1.1 sockets
carry one request at a time), opened lazily on the thread's first
call.

Every call is one **exchange** in two halves: :meth:`ServeClient.send`
writes the request and :meth:`ServeClient.receive` reads its answer,
re-sending where the rules below allow.  A single call runs the two
back to back; the fleet router sends each worker its sub-batch from
one thread and only then reads the answers, so both take the same
HTTP path.

The server sheds load by answering ``503`` + ``Retry-After`` when its
admission bound is hit; a client that immediately gives up turns
transient saturation into user-visible failures.  ``retries > 0``
makes the client honour the hint: it sleeps the advertised seconds and
re-sends, up to the configured attempt budget.  Only 503 responses that
carry ``Retry-After`` are retried — 4xx are the caller's mistake, 5xx
without a hint are genuine faults, and mid-response transport errors
may not be idempotent-safe; all of those still raise immediately.

**Trace propagation**: every request mints a deterministic trace id
(:func:`repro.obs.mint_trace_id`), sends it in the ``X-Repro-Trace``
header, and opens a client-side ``serve.client.request`` span stamped
with it.  The server adopts the id for its own spans, so the two
processes' span logs stitch into one Chrome trace
(:func:`repro.obs.export.stitch_chrome_trace`).  Retries of one logical
request reuse its trace id — the stitched view shows every attempt on
one flow.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.parse

from repro import obs

__all__ = ["Exchange", "ServeClient", "ServeClientError"]


class ServeClientError(RuntimeError):
    """An API call failed; carries ``status`` and optional ``retry_after``."""

    def __init__(self, message: str, status: int = 0,
                 retry_after: int | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class ServeClient:
    """Calls one serving endpoint's JSON API over a keep-alive connection.

    Parameters
    ----------
    base_url:
        Server base, e.g. ``http://127.0.0.1:8642`` (trailing slash ok).
    timeout:
        Per-request socket timeout in seconds.
    retries:
        How many times to re-send a request refused with ``503`` +
        ``Retry-After`` (sleeping the advertised seconds between
        attempts).  ``0`` (the default) fails fast.  No other error is
        ever retried (a stale keep-alive socket is replaced, not
        retried — see the module docs).
    """

    def __init__(self, base_url: str, timeout: float = 30.0,
                 retries: int = 0) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self._base_url = base_url.rstrip("/")
        parts = urllib.parse.urlsplit(self._base_url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"base_url must be http(s)://host[:port], "
                             f"got {base_url!r}")
        self._scheme = parts.scheme
        self._host = parts.hostname
        self._port = parts.port
        self._timeout = timeout
        self._retries = retries
        # One persistent connection per calling thread: HTTP/1.1
        # sockets are stateful (one request in flight at a time), so a
        # client shared across threads must not share the socket.
        self._local = threading.local()

    @property
    def base_url(self) -> str:
        """The server base URL this client talks to."""
        return self._base_url

    def close(self) -> None:
        """Drop the calling thread's persistent connection.

        Reopened lazily on the next call; other threads' connections
        are untouched (each thread closes its own, or the sockets go
        with the process).
        """
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def __enter__(self) -> "ServeClient":
        """Context-manager entry; the socket still opens lazily."""
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Close the persistent connection on context exit."""
        self.close()
        return False

    def healthz(self) -> dict:
        """The liveness payload (``{"status": "ok"}`` when up)."""
        return json.loads(self._get("/healthz"))

    def get_json(self, path: str) -> dict:
        """GET an arbitrary endpoint and parse its JSON body.

        The escape hatch for server-specific endpoints the typed
        methods don't cover (e.g. the fleet router's ``/fleet/status``).
        """
        return json.loads(self._get(path))

    def post_json(self, path: str, payload: dict,
                  trace_id: int | None = None) -> dict:
        """POST ``payload`` to an arbitrary endpoint; returns the JSON
        response (fleet control endpoints, ad-hoc tooling)."""
        return self._post(path, payload, trace_id=trace_id)

    def metrics(self) -> str:
        """The raw ``/metrics`` body (byte-stable JSON text)."""
        return self._get("/metrics")

    def metrics_prometheus(self) -> str:
        """The Prometheus text exposition (``/metrics.prom``)."""
        return self._get("/metrics.prom")

    def estimate(self, sql: str, trace_id: int | None = None) -> dict:
        """Estimate one query; returns ``{"estimate": c, "cached": b}``.

        Talking to a fleet router, the response additionally carries
        the answering ``worker_id`` and its ``model_version`` — the
        dict is returned whole, so those ride along for free.
        """
        return self._post("/v1/estimate", {"sql": sql}, trace_id=trace_id)

    def estimate_batch(self, sqls: list[str],
                       trace_id: int | None = None) -> list[float]:
        """Estimate a batch of queries in one round trip."""
        return self.estimate_batch_detail(sqls, trace_id=trace_id)[
            "estimates"]

    def estimate_batch_detail(self, sqls: list[str],
                              trace_id: int | None = None) -> dict:
        """Estimate a batch and return the *full* response payload.

        ``estimate_batch`` keeps its historical ``list`` return; this
        variant exposes everything the server answered — against a
        fleet router that includes ``workers`` (the distinct worker ids
        that served the batch) and ``model_version``.
        """
        return self._post("/v1/estimate_batch", {"sql": list(sqls)},
                          trace_id=trace_id)

    def feedback(self, sql: str, true_cardinality: float,
                 estimate: float | None = None,
                 trace_id: int | None = None) -> dict:
        """Report an executed query's true cardinality.

        Returns ``{"qerror": q, "estimate": c}``.  Pass ``estimate`` if
        you still hold the value the server answered with; otherwise
        the server re-estimates the query to compute the q-error.
        """
        payload: dict = {"sql": sql,
                         "true_cardinality": float(true_cardinality)}
        if estimate is not None:
            payload["estimate"] = float(estimate)
        return self._post("/v1/feedback", payload, trace_id=trace_id)

    # ------------------------------------------------------------------
    # The exchange: a write half and a read half
    # ------------------------------------------------------------------

    def send(self, path: str, payload: dict,
             trace_id: int | None = None) -> "Exchange":
        """The write half of :meth:`post_json`: send the request and
        return without reading its answer.

        :meth:`receive` reads it, on the same thread: the calling
        thread's connection carries one request at a time, so a caller
        with requests to several servers (the fleet router's fan-out)
        sends each its own and then reads every answer.
        """
        return self._begin("POST", path, json.dumps(payload).encode("utf-8"),
                           trace_id)

    def receive(self, exchange: "Exchange") -> dict:
        """The read half of :meth:`post_json`: ``exchange``'s JSON answer."""
        return json.loads(self._finish(exchange))

    def _get(self, path: str) -> str:
        return self._finish(self._begin("GET", path, None, None))

    def _post(self, path: str, payload: dict,
              trace_id: int | None = None) -> dict:
        return self.receive(self.send(path, payload, trace_id=trace_id))

    def _begin(self, method: str, path: str, body: bytes | None,
               trace_id: int | None) -> "Exchange":
        """Mint the request's trace id unless given and write it.

        One trace id covers the whole logical request, every re-send
        included.  Callers that are themselves serving a traced request
        (the fleet router forwarding to a worker) pass their inbound
        ``trace_id`` so the onward hop joins the same trace instead of
        minting a fresh one.
        """
        if trace_id is None:
            trace_id = obs.mint_trace_id()
        exchange = Exchange(method, path, body, trace_id)
        self._write(exchange)
        return exchange

    def _write(self, exchange: "Exchange") -> None:
        """Send ``exchange``'s request on the calling thread's
        connection, opening one if there is none; the
        ``serve.client.request`` span starts here and ends in
        :meth:`_read`."""
        conn = getattr(self._local, "conn", None)
        exchange.reused = conn is not None
        if conn is None:
            try:
                conn = self._connect()
            except OSError as exc:
                raise self._unreachable(exchange, exc) from exc
        headers = ({"Content-Type": "application/json"}
                   if exchange.body is not None else {})
        headers[obs.TRACE_HEADER] = obs.format_trace_header(exchange.trace_id)
        exchange.span = obs.span("serve.client.request", path=exchange.path,
                                 metric="serve.client.request.seconds",
                                 trace_id=exchange.trace_id)
        exchange.span.__enter__()
        try:
            conn.request(exchange.method, exchange.path, body=exchange.body,
                         headers=headers)
        except (OSError, http.client.HTTPException) as exc:
            exchange.span.__exit__(type(exc), exc, None)
            self.close()
            if exchange.reused and isinstance(exc, ConnectionError):
                # The server closed the idle socket: the body write
                # met its reset, so nothing of the request was read.
                self._write(exchange)
                return
            raise self._unreachable(exchange, exc) from exc
        exchange.conn = conn

    def _finish(self, exchange: "Exchange") -> str:
        """Read ``exchange``'s answer, re-sending as the module docs say.

        A kept-alive socket the server had closed is re-sent once on a
        fresh connection; a ``503`` + ``Retry-After`` is re-sent after
        the advertised sleep while the retry budget lasts.  Anything
        else raises, the last attempt's error included.
        """
        retried = 0
        while True:
            try:
                return self._read(exchange)
            except http.client.RemoteDisconnected as exc:
                # The server closed the idle socket between calls; the
                # request was never read, so one fresh-connection
                # re-send is safe.  A fresh connection dying the same
                # way is a genuine fault.
                if not exchange.reused:
                    raise ServeClientError(
                        f"cannot reach {self._base_url}{exchange.path}: "
                        f"connection closed without response") from exc
            except ServeClientError as exc:
                if (exc.status != 503 or exc.retry_after is None
                        or retried == self._retries):
                    raise
                retried += 1
                time.sleep(exc.retry_after)
            self._write(exchange)

    def _read(self, exchange: "Exchange") -> str:
        """One attempt's answer; raises ``RemoteDisconnected`` as is for
        :meth:`_finish` to judge, every other failure as a
        :class:`ServeClientError`."""
        try:
            response = exchange.conn.getresponse()
            raw = response.read()
        except http.client.RemoteDisconnected as exc:
            exchange.span.__exit__(type(exc), exc, None)
            self.close()
            raise
        except (OSError, http.client.HTTPException) as exc:
            exchange.span.__exit__(type(exc), exc, None)
            self.close()
            raise self._unreachable(exchange, exc) from exc
        exchange.span.__exit__(None, None, None)
        if response.will_close:
            self.close()
        if response.status != 200:
            text = raw.decode("utf-8", errors="replace")
            try:
                message = json.loads(text).get("error", text)
            except json.JSONDecodeError:
                message = text or response.reason
            retry_after = response.getheader("Retry-After")
            raise ServeClientError(
                f"HTTP {response.status}: {message}", status=response.status,
                retry_after=int(retry_after) if retry_after else None,
            )
        return raw.decode("utf-8")

    def _unreachable(self, exchange: "Exchange",
                     exc: Exception) -> ServeClientError:
        return ServeClientError(
            f"cannot reach {self._base_url}{exchange.path}: {exc}")

    def _connect(self) -> http.client.HTTPConnection:
        factory = (http.client.HTTPSConnection if self._scheme == "https"
                   else http.client.HTTPConnection)
        conn = factory(self._host, self._port, timeout=self._timeout)
        conn.connect()
        # Request line/headers and body are separate writes; Nagle
        # would stall the body behind the server's delayed ACK.
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._local.conn = conn
        return conn


class Exchange:
    """One request written by :meth:`ServeClient.send` whose answer
    :meth:`ServeClient.receive` has not read yet.

    It keeps what a re-send needs: the request itself, whether it went
    out on a kept-alive connection (only such a request is re-sent
    when the server closed the socket unanswered), the connection and
    the open ``serve.client.request`` span.
    """

    __slots__ = ("method", "path", "body", "trace_id", "reused", "conn",
                 "span")

    def __init__(self, method: str, path: str, body: bytes | None,
                 trace_id: int) -> None:
        self.method = method
        self.path = path
        self.body = body
        self.trace_id = trace_id
        self.reused = False
        self.conn: http.client.HTTPConnection | None = None
        self.span = None
