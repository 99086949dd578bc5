"""HTTP serving front-end: estimate requests in, JSON estimates out.

Two layers, separable for testing:

* :class:`EstimationService` — the transport-free core.  It owns the
  :class:`~repro.serve.cache.EstimateCache`, the serving pipeline
  (:class:`~repro.serve.fused.EstimatePipeline`: resolve SQL to cached
  prepared statements, execute them as one batch), the
  :class:`~repro.serve.batcher.MicroBatcher` that batches single
  requests into that execute stage, and the admission-control counter,
  and exposes ``estimate`` / ``estimate_many_sql`` / ``feedback`` /
  ``close``, all taking request SQL text.
* :class:`EstimationServer` — a ``ThreadingHTTPServer`` wrapping one
  service in a small JSON API:

  ==========================  ==================================================
  ``GET  /healthz``           liveness probe, ``{"status": "ok"}``
  ``GET  /metrics``           the byte-stable runtime-metrics snapshot (JSON)
  ``GET  /metrics.prom``      that snapshot as Prometheus text: counters,
                              histograms, windowed summaries, SLO burn rates
  ``POST /v1/estimate``       ``{"sql": "..."}`` → ``{"estimate": c, "cached": b}``
  ``POST /v1/estimate_batch`` ``{"sql": [...]}`` → ``{"estimates": [...]}``
  ``POST /v1/feedback``       ``{"sql": "...", "true_cardinality": t}`` →
                              ``{"qerror": q, "estimate": c}``
  ==========================  ==================================================

Accuracy-aware telemetry (``repro.obs`` v2), each quantity recorded
once: every ``/v1/estimate*`` request emits one wide event into the
process event log (fingerprint, trace id, batch id, model version,
cache outcome, latency, estimate), and its latency lands in the
``serve.request.seconds`` histogram (labeled by model and cache
outcome, windowed) and the ``serve.latency.slo`` tracker.
``/v1/feedback`` closes the accuracy loop: the observed true
cardinality becomes a q-error observation in the per-model/table/QFT
``serve.qerror`` histogram (windowed), the ``serve.qerror.slo`` burn
rate, and the worst-q-error exemplar reservoir (which keeps the
offending SQL).
Requests carrying an ``X-Repro-Trace`` header adopt the client's trace
id — every span the request opens is stamped with it, so client and
server span logs stitch into one Chrome trace.

Connections are **keep-alive** (HTTP/1.1 + ``Content-Length``): a
client that reuses its socket pays one round-trip per request instead
of a TCP handshake plus a handler-thread spawn.  Each live connection
registers itself with the server so shutdown stays graceful without an
idle-timeout wait: ``stop()`` flips a draining flag (handler loops bow
out between requests) and half-closes every connection's *read* side —
blocked keep-alive readers see EOF immediately while in-flight
responses still go out on the untouched write side.

Backpressure: when more than ``max_inflight`` requests are already in
flight the service refuses new work and the server answers ``503`` with
a ``Retry-After`` header — bounded queues instead of unbounded latency.
Shutdown is graceful: the listener stops accepting, in-flight handler
threads are joined, and the batcher drains everything it already
accepted before the process lets go (no accepted request is dropped).
"""

from __future__ import annotations

import math
import threading

from repro import obs
from repro.estimators.base import CardinalityEstimator
from repro.featurize.base import Featurizer, LosslessnessError
from repro.metrics import qerror
from repro.obs.prometheus import CONTENT_TYPE, render_prometheus
from repro.serve.batcher import BatcherClosedError, MicroBatcher
from repro.serve.cache import EstimateCache, ParseCache
from repro.serve.fused import EstimatePipeline
from repro.serve.http import JsonRequestHandler, ThreadedJsonServer
from repro.sql.ast import UnsupportedQueryError
from repro.sql.parser import SqlSyntaxError, fingerprint_sql

__all__ = ["EstimationService", "EstimationServer",
           "ServiceUnavailableError", "parse_feedback"]

#: Seconds a rejected client should wait before retrying (503 header).
_RETRY_AFTER_SECONDS = 1
#: Ticks the latency and q-error histograms' windows span.
_WINDOW_TICKS = 8


class ServiceUnavailableError(RuntimeError):
    """The service is saturated (or closed) and refused the request."""

    def __init__(self, message: str,
                 retry_after: int = _RETRY_AFTER_SECONDS) -> None:
        super().__init__(message)
        self.retry_after = retry_after


def parse_feedback(payload: dict) -> tuple[str, float, float | None]:
    """Validate a ``/v1/feedback`` body; return its typed fields.

    Returns ``(sql, true_cardinality, estimate)``, ``estimate`` being
    None when absent.  Both counts must be JSON numbers (not booleans)
    that convert to a finite float ≥ 0; 0 is an empty result, floored
    to 1 downstream by the paper's convention.  Anything else raises
    ``ValueError`` (a 400) before any monitor sees the observation.
    The server and the fleet router both call this.
    """
    sql = payload.get("sql")
    if not isinstance(sql, str) or "true_cardinality" not in payload:
        raise ValueError('request body must carry {"sql": "<query>", '
                         '"true_cardinality": <number>}')
    true_cardinality = _feedback_count(payload["true_cardinality"],
                                       "true_cardinality")
    estimate = payload.get("estimate")
    if estimate is not None:
        estimate = _feedback_count(estimate, "estimate")
    return sql, true_cardinality, estimate


def _feedback_count(value, name: str) -> float:
    """``value`` as a finite float ≥ 0, or ``ValueError`` naming it."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number) and number >= 0:
            return number
    raise ValueError(f'"{name}" must be a finite number >= 0, '
                     f'got {value!r:.40}')


class _RequestTelemetry:
    """Collects one request's wide-event fields and emits on exit.

    Opened around the whole request (admission included, so rejections
    are captured too); the body fills in ``cache`` / ``batch_id`` /
    ``estimate`` as they become known.  On exit — normal or exceptional
    — the latency stopwatch stops and the service records the event,
    the latency observation, the latency SLO sample, and the
    logical-tick bump.
    """

    __slots__ = ("_service", "sql", "trace_id", "cache", "batch_id",
                 "estimate", "watch")

    def __init__(self, service: "EstimationService", sql: str | None,
                 trace_id: int | None) -> None:
        self._service = service
        self.sql = sql
        self.trace_id = trace_id
        self.cache: str | None = None
        self.batch_id: int | None = None
        self.estimate: float | None = None
        self.watch = obs.get_event_log().stopwatch()

    def __enter__(self) -> "_RequestTelemetry":
        self.watch.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.watch.__exit__(exc_type, exc, tb)
        error = exc_type.__name__ if exc_type is not None else None
        self._service._record_request(self, error)
        return False


class EstimationService:
    """Estimate cache → resolve → execute, with admission control.

    Requests carry SQL text.  The exact-match estimate cache is probed
    with that text before anything else, so a hit costs one dict probe
    and never reaches the fingerprinter or the parser.  Misses go
    through the one serving pipeline (:mod:`repro.serve.fused`): single
    requests resolve in their own thread and ride the micro-batcher into
    its execute stage; batches and feedback call execute directly.

    Parameters
    ----------
    estimator:
        A fitted estimator (``estimate_batch`` must be usable from the
        batcher's worker thread).
    max_batch_size / max_wait_ms:
        Micro-batching knobs, see :class:`~repro.serve.batcher.MicroBatcher`.
    cache_size:
        LRU estimate-cache capacity (keyed on request SQL text); ``0``
        disables caching.
    max_inflight:
        Admission bound: requests beyond this many concurrently in
        flight are rejected with :class:`ServiceUnavailableError`.
    model_version:
        Label value for per-model telemetry dimensions; defaults to the
        estimator's ``name`` (or its class name).
    tick_every:
        Advance the global registry's windows one logical tick every
        this many requests (estimates *and* feedback); ``0`` (the
        default) leaves ticking to the operator / tests.
    latency_slo / qerror_slo:
        Targets for the ``serve.latency.slo`` (seconds) and
        ``serve.qerror.slo`` (ratio) trackers.
    slo_objective:
        Fraction of observations that must meet each SLO target.
    """

    def __init__(self, estimator: CardinalityEstimator,
                 max_batch_size: int = 64, max_wait_ms: float = 2.0,
                 cache_size: int = 1024, max_inflight: int = 256,
                 model_version: str | None = None, tick_every: int = 0,
                 latency_slo: float = 0.5, qerror_slo: float = 10.0,
                 slo_objective: float = 0.99) -> None:
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight}")
        if tick_every < 0:
            raise ValueError(f"tick_every must be >= 0, got {tick_every}")
        self._estimator = estimator
        self._pipeline = EstimatePipeline(estimator)
        self._batcher = MicroBatcher(self._pipeline.execute,
                                     max_batch_size=max_batch_size,
                                     max_wait_ms=max_wait_ms)
        self._cache = EstimateCache(max_size=cache_size)
        self._max_inflight = max_inflight
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._closed = False
        # --- accuracy-aware telemetry (repro.obs v2) ------------------
        self._model_version = (model_version
                               or getattr(estimator, "name", None)
                               or type(estimator).__name__)
        featurizer = getattr(estimator, "featurizer", None)
        if isinstance(featurizer, Featurizer):
            self._table_label = featurizer.table_name
            self._qft_label = type(featurizer).__name__
        else:
            self._table_label = "-"
            self._qft_label = type(estimator).__name__
        self._tick_every = tick_every
        self._request_seq = 0
        registry = obs.get_registry()
        self._latency = registry.histogram(
            "serve.request.seconds", label_names=("model", "cache"),
            window_ticks=_WINDOW_TICKS)
        self._qerror = registry.histogram(
            "serve.qerror", label_names=("model", "table", "qft"),
            window_ticks=_WINDOW_TICKS)
        self._latency_slo = registry.slo("serve.latency.slo",
                                         target=latency_slo,
                                         objective=slo_objective)
        self._qerror_slo = registry.slo("serve.qerror.slo",
                                        target=qerror_slo,
                                        objective=slo_objective)

    @property
    def estimator(self) -> CardinalityEstimator:
        """The estimator answering this service's requests."""
        return self._estimator

    @property
    def cache(self) -> EstimateCache:
        """The service's estimate cache (for stats and tests)."""
        return self._cache

    @property
    def batcher(self) -> MicroBatcher:
        """The service's micro-batcher (for stats and tests)."""
        return self._batcher

    @property
    def parse_cache(self) -> ParseCache:
        """The fingerprint-keyed statement cache (for stats and tests)."""
        return self._pipeline.parse_cache

    @property
    def model_version(self) -> str:
        """The model-version label on this service's telemetry."""
        return self._model_version

    def estimate(self, sql: str,
                 trace_id: int | None = None) -> tuple[float, bool]:
        """Estimate one SQL statement; returns ``(estimate, was_cached)``.

        The estimate cache is probed with the request text first, so a
        hit never reaches the parser.  A miss resolves its statement in
        this thread (a seen statement costs one parse-cache probe),
        rides the micro-batcher into the pipeline's execute stage, and
        is cached on the way out.  Saturation raises
        :class:`ServiceUnavailableError` *before* any work is queued;
        malformed SQL raises the parser's ``ValueError`` family, and a
        statement the estimator rejects raises its error for this
        request alone.  ``trace_id`` joins the request's spans and wide
        event to the caller's trace.
        """
        with _RequestTelemetry(self, sql, trace_id) as telemetry, \
                obs.use_trace_context(trace_id or obs.current_trace_id()), \
                self._admit(1), \
                obs.span("serve.request"):
            registry = obs.get_registry()
            registry.counter("serve.requests_total").inc()
            registry.counter("serve.queries_total").inc()
            cached = self._cache.lookup(sql)
            if cached is not None:
                telemetry.cache = "hit"
                telemetry.estimate = cached
                return cached, True
            resolved, = self._pipeline.resolve([sql])
            try:
                request = self._batcher.submit_request(
                    resolved, trace_id=trace_id)
            except BatcherClosedError as exc:
                raise ServiceUnavailableError(str(exc)) from exc
            estimate = request.future.result()
            telemetry.cache = "miss"
            telemetry.batch_id = request.batch_id
            telemetry.estimate = estimate
            self._cache.store(sql, estimate)
            return estimate, False

    def estimate_many_sql(self, sqls: list[str],
                          trace_id: int | None = None) -> list[float]:
        """Estimate a client-supplied batch of SQL statements.

        The estimate cache is probed first, keyed on each statement's
        text; only misses go further.  The misses are resolved and
        executed as one batch — the same two stages a single request
        takes, minus the micro-batcher, since the batch is already
        amortised.  Estimates are cached only once the whole batch has
        succeeded (one bad statement fails the request), and every
        answer is bitwise-identical to ``estimator.estimate_batch`` on
        the parsed statements.
        """
        with _RequestTelemetry(self, None, trace_id) as telemetry, \
                obs.use_trace_context(trace_id or obs.current_trace_id()), \
                self._admit(1), \
                obs.span("serve.request", n_queries=len(sqls)):
            telemetry.cache = "batch"
            registry = obs.get_registry()
            registry.counter("serve.requests_total").inc()
            registry.counter("serve.queries_total").inc(len(sqls))
            if self._closed:
                raise ServiceUnavailableError("service is shut down")
            results = self._cache.lookup_many(sqls)
            misses = [position for position, value in enumerate(results)
                      if value is None]
            if misses:
                registry.counter("serve.batches_total").inc()
                registry.histogram("serve.batch.size").record(len(misses))
                resolved = self._pipeline.resolve(
                    [sqls[position] for position in misses])
                with obs.span("serve.batch.execute", n_queries=len(misses),
                              metric="serve.batch.execute.seconds"):
                    estimates = self._pipeline.execute(resolved)
                for position, estimate in zip(misses, estimates.tolist()):
                    results[position] = estimate
                self._cache.store_many((sqls[position], results[position])
                                       for position in misses)
            return results

    def feedback(self, sql: str, true_cardinality: float,
                 estimate: float | None = None,
                 trace_id: int | None = None) -> tuple[float, float]:
        """Report an executed query's true cardinality; returns
        ``(qerror, estimate)``.

        This closes the accuracy loop: the observed q-error (floored at
        cardinality 1, the paper's convention) feeds the per-model
        ``serve.qerror`` histogram, the ``serve.qerror.slo`` burn rate,
        and the worst-q-error exemplar reservoir (which keeps ``sql``
        itself).  ``estimate`` is the estimate the caller was served;
        when omitted the service re-estimates the query through the
        pipeline's execute stage directly (bypassing the estimate
        cache, the batcher and admission — feedback must not compete
        with live traffic for in-flight slots).  Either way the SQL is
        resolved, so malformed SQL raises the parser's error.
        """
        with obs.use_trace_context(trace_id or obs.current_trace_id()), \
                obs.span("serve.feedback"):
            resolved = self._pipeline.resolve([sql])
            if estimate is None:
                estimate = float(self._pipeline.execute(resolved)[0])
            true_floored = max(float(true_cardinality), 1.0)
            estimate_floored = max(float(estimate), 1.0)
            observed = float(qerror(true_floored, estimate_floored))
            self._qerror.record(observed, model=self._model_version,
                                table=self._table_label, qft=self._qft_label)
            self._qerror_slo.observe(observed)
            try:
                fingerprint, _ = fingerprint_sql(sql)
            except (ValueError, SqlSyntaxError):
                fingerprint = None
            if fingerprint is not None:
                obs.get_event_log().attach_qerror(fingerprint, observed,
                                                  sql=sql)
            self._bump_tick()
            return observed, float(estimate)

    def _record_request(self, telemetry: "_RequestTelemetry",
                        error: str | None) -> None:
        """Emit one finished request's telemetry (event + latency)."""
        fingerprint = None
        if telemetry.sql is not None:
            try:
                fingerprint, _ = fingerprint_sql(telemetry.sql)
            except (ValueError, SqlSyntaxError):
                fingerprint = None
        obs.get_event_log().record(
            trace_id=telemetry.trace_id,
            fingerprint=fingerprint,
            sql=telemetry.sql,
            batch_id=telemetry.batch_id,
            model_version=self._model_version,
            cache=telemetry.cache,
            latency_seconds=telemetry.watch.seconds,
            estimate=telemetry.estimate,
            error=error,
        )
        cache_label = telemetry.cache or ("error" if error else "none")
        self._latency.record(telemetry.watch.seconds,
                             model=self._model_version, cache=cache_label)
        self._latency_slo.observe(telemetry.watch.seconds)
        self._bump_tick()

    def _bump_tick(self) -> None:
        """Advance the global registry every ``tick_every`` requests."""
        if not self._tick_every:
            return
        with self._inflight_lock:
            self._request_seq += 1
            advance = self._request_seq % self._tick_every == 0
        if advance:
            obs.get_registry().advance_all()

    def close(self, drain: bool = True) -> None:
        """Refuse new requests and drain (or cancel) queued ones."""
        with self._inflight_lock:
            self._closed = True
        self._batcher.close(drain=drain)

    def _admit(self, weight: int) -> "_Admission":
        registry = obs.get_registry()
        with self._inflight_lock:
            if self._closed:
                registry.counter("serve.rejected_total").inc()
                raise ServiceUnavailableError("service is shut down")
            if self._inflight + weight > self._max_inflight:
                registry.counter("serve.rejected_total").inc()
                raise ServiceUnavailableError(
                    f"service saturated ({self._inflight} requests in "
                    f"flight, limit {self._max_inflight})")
            self._inflight += weight
        return _Admission(self, weight)


class _Admission:
    """Context manager releasing an admitted request's in-flight slot."""

    __slots__ = ("_service", "_weight")

    def __init__(self, service: EstimationService, weight: int) -> None:
        self._service = service
        self._weight = weight

    def __enter__(self) -> "_Admission":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        with self._service._inflight_lock:
            self._service._inflight -= self._weight
        return False


class _RequestHandler(JsonRequestHandler):
    """Routes the JSON API onto an :class:`EstimationService`.

    Subclassed per server with the ``service`` class attribute bound;
    never instantiated directly.  Transport plumbing (keep-alive,
    drain, JSON encode/decode) comes from
    :class:`~repro.serve.http.JsonRequestHandler`.
    """

    service: EstimationService

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        """Serve ``/healthz`` and the two renderings of one snapshot.

        ``/metrics`` is the registry's byte-stable JSON snapshot;
        ``/metrics.prom`` renders that snapshot as Prometheus text
        (counters, gauges, labeled histograms, windowed summaries, and
        SLO burn rates).
        """
        if self.path == "/healthz":
            self._send_json(200, {"status": "ok"})
        elif self.path == "/metrics.prom":
            body = render_prometheus()
            self._send_bytes(200, body.encode("utf-8"),
                             content_type=CONTENT_TYPE)
        elif self.path == "/metrics":
            body = obs.get_registry().to_json() + "\n"
            self._send_bytes(200, body.encode("utf-8"),
                             content_type="application/json")
        else:
            self._send_json(404, {"error": f"no such endpoint {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        """Serve ``/v1/estimate``, ``/v1/estimate_batch``, ``/v1/feedback``.

        A request carrying an ``X-Repro-Trace`` header adopts the
        client's trace id for the duration of handling: every span the
        service opens is stamped with it, which is what lets the
        exporter stitch client and server span logs into one trace.
        """
        trace_id = obs.parse_trace_header(
            self.headers.get(obs.TRACE_HEADER))
        with obs.use_trace_context(trace_id):
            if self.path == "/v1/estimate":
                self._handle(lambda payload: self._estimate(payload,
                                                            trace_id))
            elif self.path == "/v1/estimate_batch":
                self._handle(lambda payload: self._estimate_batch(payload,
                                                                  trace_id))
            elif self.path == "/v1/feedback":
                self._handle(lambda payload: self._feedback(payload,
                                                            trace_id))
            else:
                self._send_json(404,
                                {"error": f"no such endpoint {self.path}"})

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def _estimate(self, payload: dict, trace_id: int | None = None) -> dict:
        sql = payload.get("sql")
        if not isinstance(sql, str):
            raise ValueError('request body must carry {"sql": "<query>"}')
        estimate, cached = self.service.estimate(sql, trace_id=trace_id)
        return {"estimate": estimate, "cached": cached}

    def _estimate_batch(self, payload: dict,
                        trace_id: int | None = None) -> dict:
        sqls = payload.get("sql")
        if (not isinstance(sqls, list)
                or not all(isinstance(s, str) for s in sqls)):
            raise ValueError(
                'request body must carry {"sql": ["<query>", ...]}')
        return {"estimates": self.service.estimate_many_sql(
            sqls, trace_id=trace_id)}

    def _feedback(self, payload: dict, trace_id: int | None = None) -> dict:
        sql, true_cardinality, estimate = parse_feedback(payload)
        observed, served = self.service.feedback(
            sql, true_cardinality, estimate=estimate, trace_id=trace_id)
        return {"qerror": observed, "estimate": served}

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _handle(self, endpoint) -> None:
        try:
            payload = self._read_json()
            response = endpoint(payload)
        except ServiceUnavailableError as exc:
            obs.get_registry().counter("serve.errors_total").inc()
            self._send_json(503, {"error": str(exc)},
                            extra_headers={
                                "Retry-After": str(exc.retry_after)})
        except (ValueError, KeyError, SqlSyntaxError, UnsupportedQueryError,
                LosslessnessError) as exc:
            # KeyError is the featurizer's unknown-attribute complaint —
            # a client mistake, not a server fault.
            obs.get_registry().counter("serve.errors_total").inc()
            message = exc.args[0] if exc.args else str(exc)
            self._send_json(400, {"error": str(message)})
        except Exception as exc:  # repro: ignore[RPR103] — mapped to a 500 response
            obs.get_registry().counter("serve.errors_total").inc()
            self._send_json(500, {"error": f"internal error: {exc}"})
        else:
            self._send_json(200, response)


class EstimationServer(ThreadedJsonServer):
    """A threaded HTTP server around one :class:`EstimationService`.

    ``port=0`` binds an ephemeral port (read it back from ``port`` after
    construction) — the form every test and the in-process benchmark
    use.  ``start()`` serves in a background thread; ``stop()`` performs
    the graceful-drain sequence described in the module docs, then
    closes the service (draining the micro-batcher).
    """

    def __init__(self, service: EstimationService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        super().__init__(_RequestHandler, host=host, port=port,
                         thread_name="repro-serve-http", service=service)
        self._service = service

    @property
    def service(self) -> EstimationService:
        """The wrapped service."""
        return self._service

    def _on_stop(self, drain: bool) -> None:
        """Close the service once the listener has fully stopped."""
        self._service.close(drain=drain)
