"""Shared threaded JSON-over-HTTP plumbing for serving front ends.

:class:`~repro.serve.server.EstimationServer` and the fleet router
(:class:`~repro.fleet.router.RouterServer`) expose the same kind of
surface — a small JSON API on a ``ThreadingHTTPServer`` with
keep-alive connections and a graceful drain — so the transport
machinery lives here once:

* :class:`JsonRequestHandler` — HTTP/1.1 keep-alive handler base with
  JSON body parsing/encoding, connection registration (so ``stop()``
  can sweep idle keep-alive sockets), the drain-aware request loop,
  and the request-body bound (:data:`MAX_BODY_BYTES`).  Subclasses
  implement ``do_GET``/``do_POST`` routing only.
* :class:`ThreadedJsonServer` — owns the ``ThreadingHTTPServer``, the
  serving thread, and the graceful-stop sequence: flip the draining
  flag, half-close every registered connection's read side (blocked
  keep-alive readers see EOF immediately, in-flight responses still go
  out, one whose body was still arriving closes unanswered), join the
  listener, then run the subclass's ``_on_stop`` hook.

Nothing here knows about estimators, services, or workers — it is the
transport layer both servers stand on.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

__all__ = ["JsonRequestHandler", "ThreadedJsonServer", "MAX_BODY_BYTES"]

#: Largest request body a handler reads, in bytes.  A batch of 64
#: prepared statements is about 15 KB; the cap also bounds the size of
#: an estimate-cache key, which is the request's SQL text.
MAX_BODY_BYTES = 1 << 20


def _content_length(value: str) -> int | None:
    """A ``Content-Length`` value's byte count, or ``None`` unless it is
    ``1*DIGIT`` once its optional whitespace is stripped (``int`` would
    also read signs, underscores and non-ASCII digits).

    A value with more digits than :data:`MAX_BODY_BYTES`, leading zeros
    aside, exceeds the limit whatever they are: it reads as one byte
    past it, never through ``int``, which refuses strings of more than
    4,300 digits.
    """
    value = value.strip(" \t")
    if not (value.isascii() and value.isdigit()):
        return None
    value = value.lstrip("0")
    if len(value) > len(str(MAX_BODY_BYTES)):
        return MAX_BODY_BYTES + 1
    return int(value or "0")


class JsonRequestHandler(BaseHTTPRequestHandler):
    """Keep-alive JSON handler base; subclasses add the routing.

    Server classes bind their state onto a per-server subclass (class
    attributes) — instances are created by ``ThreadingHTTPServer`` per
    connection and never constructed directly.
    """

    protocol_version = "HTTP/1.1"
    # Cull keep-alive connections whose peer silently vanished; a live
    # client just reconnects transparently on its next call.
    timeout = 300.0
    # Headers and body go out as separate writes; on a kept-alive
    # socket Nagle would hold the second until the peer's delayed ACK
    # (~40ms per response without this).
    disable_nagle_algorithm = True

    def setup(self) -> None:
        """Register the connection so ``stop()`` can sweep idle sockets."""
        super().setup()
        registry = getattr(self.server, "_repro_handlers", None)
        if registry is not None:
            with self.server._repro_handlers_lock:
                registry.add(self)

    def finish(self) -> None:
        """Unregister the connection once its handler loop ends."""
        try:
            super().finish()
        finally:
            registry = getattr(self.server, "_repro_handlers", None)
            if registry is not None:
                with self.server._repro_handlers_lock:
                    registry.discard(self)

    def handle_one_request(self) -> None:
        """Keep-alive loop step; bows out once the server is draining.

        The check sits *between* requests, so a request already being
        processed when drain starts still gets its response; only the
        connection's next request is refused (by EOF — ``stop()`` has
        half-closed the read side).
        """
        if getattr(self.server, "_repro_draining", False):
            self.close_connection = True
            return
        super().handle_one_request()

    def parse_request(self) -> bool:
        """Parse the request line and headers, then read the body.

        Runs before routing.  The body is framed strictly (RFC 9112
        §6): by at most one ``Content-Length`` field whose value, less
        surrounding spaces and tabs, is ASCII digits, and never by a
        ``Transfer-Encoding``, since the handler decodes none.  A
        request framed any other way is answered ``400``, a length
        above :data:`MAX_BODY_BYTES` ``413``, without reading the body:
        two parties that frame one request differently are what request
        smuggling exploits.  Either answer closes the connection: the
        unread body would otherwise be parsed as the next request.  A
        shorter body than declared means the connection died
        mid-request (the peer left, or ``stop()`` half-closed it): it
        closes unanswered, a transport error the caller may re-send,
        never a 4xx.
        """
        if not super().parse_request():
            return False
        self._body = b""
        declared = self.headers.get_all("Content-Length", [])
        length = _content_length(declared[0]) if len(declared) == 1 else None
        if "Transfer-Encoding" in self.headers:
            status = 400
            message = "Transfer-Encoding is not supported"
        elif not declared:
            return True
        elif len(declared) > 1:
            status = 400
            message = f"{len(declared)} Content-Length fields"
        elif length is None:
            status = 400
            message = f"invalid Content-Length {declared[0]!r}"
        elif length <= MAX_BODY_BYTES:
            self._body = self.rfile.read(length)
            if len(self._body) == length:
                return True
            self.close_connection = True
            return False
        else:
            status = 413
            message = f"request body exceeds the {MAX_BODY_BYTES}-byte limit"
        self.close_connection = True
        self._send_json(status, {"error": message},
                        extra_headers={"Connection": "close"})
        return False

    def _read_json(self) -> dict:
        try:
            payload = json.loads(self._body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"request body is not valid JSON: {exc}") \
                from exc
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _send_json(self, status: int, payload: dict,
                   extra_headers: dict | None = None) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._send_bytes(status, body, content_type="application/json",
                         extra_headers=extra_headers)

    def _send_bytes(self, status: int, body: bytes, content_type: str,
                    extra_headers: dict | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence the default stderr access log (obs metrics cover it)."""


class ThreadedJsonServer:
    """A threaded HTTP server with keep-alive-aware graceful drain.

    ``port=0`` binds an ephemeral port (read it back from ``port``
    after construction) — the form every test and the in-process
    benchmark use.  ``start()`` serves in a background thread;
    ``stop()`` performs the graceful-drain sequence described in the
    module docs, then calls the subclass's ``_on_stop(drain)`` hook
    (where e.g. the estimation service closes its batcher).
    """

    def __init__(self, handler_cls: type[JsonRequestHandler],
                 host: str = "127.0.0.1", port: int = 0,
                 thread_name: str = "repro-http",
                 **bound_attrs) -> None:
        handler = type("Bound" + handler_cls.__name__, (handler_cls,),
                       {**bound_attrs, "__doc__": handler_cls.__doc__})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        # Graceful drain: handler threads must be joinable (non-daemon)
        # and server_close() must wait for them.
        self._httpd.daemon_threads = False
        self._httpd.block_on_close = True
        # Keep-alive bookkeeping swept by stop(); see the module docs.
        self._httpd._repro_handlers = set()
        self._httpd._repro_handlers_lock = threading.Lock()
        self._httpd._repro_draining = False
        self._thread: threading.Thread | None = None
        self._thread_name = thread_name

    @property
    def host(self) -> str:
        """Bound host address."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """Bound port (useful after binding port 0)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should talk to."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ThreadedJsonServer":
        """Begin serving in a background thread; returns ``self``."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name=self._thread_name,
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop accepting, join in-flight handlers, run ``_on_stop``.

        Every request read before ``stop`` completes normally; only
        then does the subclass hook run.  Keep-alive connections are
        half-closed (read side only), so idle handler threads unblock
        immediately while in-flight responses still reach their
        clients; one whose body was still arriving closes unanswered.
        Idempotent.
        """
        self._httpd._repro_draining = True
        with self._httpd._repro_handlers_lock:
            handlers = list(self._httpd._repro_handlers)
        for handler in handlers:
            try:
                handler.connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # already closing; the join below still converges
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self._on_stop(drain)

    def _on_stop(self, drain: bool) -> None:
        """Subclass hook run after the listener has fully stopped."""

    def __enter__(self) -> "ThreadedJsonServer":
        """Start on context entry."""
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Graceful stop on context exit."""
        self.stop(drain=True)
        return False
