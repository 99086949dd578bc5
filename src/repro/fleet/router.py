"""Fleet router: one HTTP front door sharding requests across workers.

The router owns no model.  It keys every request by its SQL
*fingerprint* (statement template, literals masked), maps the key onto
a worker through the pool's consistent-hash ring — so all instances of
one prepared statement hit the same worker and its parse cache stays
hot — and forwards over the worker's ordinary HTTP API with the
caller's ``X-Repro-Trace`` id, so client → router → worker stitches
into one trace.

Failure handling is deliberately narrow: only *transport* errors (the
worker is unreachable — crashed, mid-restart) fail over to the next
distinct worker on the ring (``retries`` siblings, in ring order).  A
worker's ``503`` saturation answer propagates to the client together
with its ``Retry-After`` hint — retrying a saturated shard on a
sibling would melt the fleet one worker at a time — and 4xx responses
are the client's mistake wherever they are served.

Batches split by owner: positions are grouped per owning worker, the
sub-batches fan out concurrently, and the answers merge back into
request order.  The batch response additionally reports the distinct
``workers`` that served it.

Telemetry aggregates here too: ``GET /metrics`` answers a JSON
document with the router's own registry snapshot plus every worker's
``/metrics`` snapshot, and ``GET /metrics.prom`` renders those same
snapshots as one scrape with the one renderer a server uses, labeling
every sample with ``worker="<id>"`` (``worker="router"`` for the
router's own series).

A :class:`~repro.fleet.rollout.RolloutManager` may be attached; the
router then calls its ``on_estimate``/``on_feedback`` hooks after each
forwarded request, which is how canary traffic mirroring and the
promotion gate see live traffic without the router knowing rollout
rules.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

from repro import obs
from repro.fleet.rollout import RolloutError
from repro.fleet.workers import WorkerHandle, WorkerPool, WorkerSupervisor
from repro.obs.prometheus import CONTENT_TYPE, render_snapshots
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.http import JsonRequestHandler, ThreadedJsonServer
from repro.serve.server import parse_feedback
from repro.sql.parser import fingerprint_sql

__all__ = ["FleetRouter", "RouterServer"]


class FleetRouter:
    """Routes the serving API across a :class:`WorkerPool`.

    Parameters
    ----------
    pool:
        The live worker pool (usually a supervisor's).
    supervisor:
        Optional :class:`WorkerSupervisor` — only consulted for
        restart counts in :meth:`status`.
    retries:
        How many ring *siblings* to try after the owner fails with a
        transport error (crashed worker).  ``1`` means owner + one
        sibling.
    recent_sql_limit:
        How many recently routed statements to remember; the rollout
        manager replays them to warm candidate workers.
    """

    def __init__(self, pool: WorkerPool,
                 supervisor: WorkerSupervisor | None = None,
                 retries: int = 1, recent_sql_limit: int = 256) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self._pool = pool
        self._supervisor = supervisor
        self._retries = retries
        self._recent: deque[str] = deque(maxlen=recent_sql_limit)
        self._recent_lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=8, thread_name_prefix="repro-fleet-router")
        self._rollout = None

    @property
    def pool(self) -> WorkerPool:
        """The worker pool this router reads placement from."""
        return self._pool

    @property
    def rollout(self):
        """The attached rollout manager, or ``None``."""
        return self._rollout

    def set_rollout(self, rollout) -> None:
        """Attach (or detach, with ``None``) a rollout manager."""
        self._rollout = rollout

    def recent_sql(self) -> list[str]:
        """Recently routed statements, oldest first (canary warm-up)."""
        with self._recent_lock:
            return list(self._recent)

    def close(self) -> None:
        """Shut the batch fan-out executor down (joins its threads)."""
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------

    def _candidates(self, key: str) -> list[WorkerHandle]:
        try:
            handles = self._pool.preference(key, self._retries + 1)
        except KeyError:
            handles = []
        if not handles:
            raise ServeClientError("no live workers in the fleet",
                                   status=0)
        return handles

    def _forward(self, key: str,
                 call: Callable[[ServeClient], dict]
                 ) -> tuple[dict, WorkerHandle]:
        """Forward with sibling failover, surviving a mid-request swap.

        If *every* handle of the placement we read fails with a
        transport error, the pool membership may have flipped between
        our lookup and the call (a rollout hot-swap draining the old
        generation).  One fresh lookup retries against the new pool;
        with unchanged membership the retry hits the same dead workers
        and the original error propagates.
        """
        try:
            return self._forward_once(key, call)
        except ServeClientError as exc:
            if exc.status != 0:
                raise
            return self._forward_once(key, call)

    def _forward_once(self, key: str,
                      call: Callable[[ServeClient], dict]
                      ) -> tuple[dict, WorkerHandle]:
        """Try the owner, then ring siblings, on transport errors only."""
        registry = obs.get_registry()
        handles = self._candidates(key)
        failure: ServeClientError | None = None
        for index, handle in enumerate(handles):
            try:
                return call(handle.client), handle
            except ServeClientError as exc:
                if exc.status != 0:
                    raise  # an HTTP answer: the worker spoke; honour it
                failure = exc
                if index + 1 < len(handles):
                    registry.counter("fleet.failovers_total").inc()
        assert failure is not None
        raise failure

    def estimate(self, sql: str, trace_id: int | None = None) -> dict:
        """Route one estimate; response gains ``worker_id`` and
        ``model_version`` from the answering worker."""
        registry = obs.get_registry()
        registry.counter("fleet.requests_total").inc()
        registry.counter("fleet.queries_total").inc()
        fingerprint, _ = fingerprint_sql(sql)
        with self._recent_lock:
            self._recent.append(sql)
        watch = obs.get_event_log().stopwatch()
        with watch:
            response, handle = self._forward(
                fingerprint,
                lambda client: client.estimate(sql, trace_id=trace_id))
        response = dict(response)
        response.setdefault("worker_id", handle.worker_id)
        response.setdefault("model_version", handle.model_version)
        rollout = self._rollout
        if rollout is not None:
            rollout.on_estimate(sql, fingerprint, response, watch.seconds,
                                trace_id)
        return response

    def estimate_batch(self, sqls: list[str],
                       trace_id: int | None = None) -> dict:
        """Route a batch: split by owning worker, fan out, merge back.

        The merged response carries ``estimates`` in request order plus
        the sorted distinct ``workers`` that served the batch.
        """
        registry = obs.get_registry()
        registry.counter("fleet.requests_total").inc()
        registry.counter("fleet.queries_total").inc(len(sqls))
        if not sqls:
            return {"estimates": [], "workers": []}
        groups: dict[str, list[int]] = {}
        fingerprints: list[str] = []
        for position, sql in enumerate(sqls):
            fingerprint, _ = fingerprint_sql(sql)
            fingerprints.append(fingerprint)
            owner = self._candidates(fingerprint)[0].worker_id
            groups.setdefault(owner, []).append(position)
        with self._recent_lock:
            self._recent.extend(sqls)

        def forward_group(positions: list[int]) -> tuple[dict, WorkerHandle]:
            subset = [sqls[position] for position in positions]
            # The group's first fingerprint anchors the sibling walk;
            # every position in the group shares the same owner.
            return self._forward(
                fingerprints[positions[0]],
                lambda client: client.estimate_batch_detail(
                    subset, trace_id=trace_id))

        ordered = sorted(groups.values(), key=lambda g: g[0])
        if len(ordered) == 1:
            outcomes = [forward_group(ordered[0])]
        else:
            outcomes = list(self._executor.map(forward_group, ordered))
        estimates: list[float] = [0.0] * len(sqls)
        workers: set[str] = set()
        for positions, (response, handle) in zip(ordered, outcomes):
            values = response["estimates"]
            for position, value in zip(positions, values):
                estimates[position] = float(value)
            workers.add(handle.worker_id)
        return {"estimates": estimates, "workers": sorted(workers)}

    def feedback(self, sql: str, true_cardinality: float,
                 estimate: float | None = None,
                 trace_id: int | None = None) -> dict:
        """Route feedback to the statement's owning worker."""
        registry = obs.get_registry()
        registry.counter("fleet.requests_total").inc()
        registry.counter("fleet.feedback_total").inc()
        fingerprint, _ = fingerprint_sql(sql)
        response, handle = self._forward(
            fingerprint,
            lambda client: client.feedback(sql, true_cardinality,
                                           estimate=estimate,
                                           trace_id=trace_id))
        response = dict(response)
        response.setdefault("worker_id", handle.worker_id)
        rollout = self._rollout
        if rollout is not None:
            rollout.on_feedback(sql, true_cardinality, response, trace_id)
        return response

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def health(self) -> list[dict]:
        """One status row per pool worker, with a live HTTP probe."""
        rows = []
        for handle in self._pool.handles():
            row = handle.describe()
            if row["alive"]:
                try:
                    handle.client.healthz()
                    row["healthy"] = True
                except ServeClientError:
                    row["healthy"] = False
            else:
                row["healthy"] = False
            rows.append(row)
        return rows

    def status(self) -> dict:
        """The ``/fleet/status`` document: workers, rollout, restarts."""
        rollout = self._rollout
        status = {
            "workers": self.health(),
            "rollout": (rollout.status() if rollout is not None
                        else {"state": "idle"}),
        }
        if self._supervisor is not None:
            status["restarts"] = self._supervisor.restarts()
        return status

    def metrics(self) -> dict:
        """Merged JSON metrics: the router's registry + every worker's
        (``{"unreachable": reason}`` for a worker that did not answer)."""
        workers: dict[str, dict] = {}
        for handle in self._pool.handles():
            try:
                workers[handle.worker_id] = json.loads(
                    handle.client.metrics())
            except ServeClientError as exc:
                workers[handle.worker_id] = {"unreachable": str(exc)}
        return {"router": obs.get_registry().snapshot(),
                "workers": workers}

    def metrics_prometheus(self) -> str:
        """One exposition page over the whole fleet (see module docs).

        Unreachable workers are simply absent from the scrape — their
        series going stale *is* the signal a monitoring stack expects.
        """
        document = self.metrics()
        sources = {"router": document["router"]}
        sources.update((worker, snapshot)
                       for worker, snapshot in document["workers"].items()
                       if "unreachable" not in snapshot)
        return render_snapshots(sources, source_label="worker")


class _RouterHandler(JsonRequestHandler):
    """Routes the fleet HTTP API onto a :class:`FleetRouter`.

    Subclassed per server with the ``router`` class attribute bound;
    never instantiated directly.
    """

    router: FleetRouter

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        """Serve ``/healthz``, merged metrics, and ``/fleet/status``."""
        if self.path == "/healthz":
            self._send_json(200, {"status": "ok",
                                  "workers": len(self.router.pool)})
        elif self.path == "/metrics.prom":
            body = self.router.metrics_prometheus()
            self._send_bytes(200, body.encode("utf-8"),
                             content_type=CONTENT_TYPE)
        elif self.path == "/metrics":
            body = json.dumps(self.router.metrics(), sort_keys=True) + "\n"
            self._send_bytes(200, body.encode("utf-8"),
                             content_type="application/json")
        elif self.path == "/fleet/status":
            self._send_json(200, self.router.status())
        else:
            self._send_json(404, {"error": f"no such endpoint {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        """Serve the estimate/feedback API plus rollout control."""
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
            elif self.path == "/fleet/rollout":
                self._handle(self._rollout_begin)
            elif self.path == "/fleet/promote":
                self._handle(lambda payload: self._rollout_decide(
                    "promote"))
            elif self.path == "/fleet/rollback":
                self._handle(lambda payload: self._rollout_decide(
                    "rollback"))
            else:
                self._send_json(404,
                                {"error": f"no such endpoint {self.path}"})

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def _estimate(self, payload: dict, trace_id: int | None) -> dict:
        sql = payload.get("sql")
        if not isinstance(sql, str):
            raise ValueError('request body must carry {"sql": "<query>"}')
        return self.router.estimate(sql, trace_id=trace_id)

    def _estimate_batch(self, payload: dict,
                        trace_id: int | None) -> dict:
        sqls = payload.get("sql")
        if (not isinstance(sqls, list)
                or not all(isinstance(s, str) for s in sqls)):
            raise ValueError(
                'request body must carry {"sql": ["<query>", ...]}')
        return self.router.estimate_batch(sqls, trace_id=trace_id)

    def _feedback(self, payload: dict, trace_id: int | None) -> dict:
        sql, true_cardinality, estimate = parse_feedback(payload)
        return self.router.feedback(sql, true_cardinality,
                                    estimate=estimate, trace_id=trace_id)

    def _require_rollout(self):
        rollout = self.router.rollout
        if rollout is None:
            raise ValueError(
                "no rollout manager is attached to this router")
        return rollout

    def _rollout_begin(self, payload: dict) -> dict:
        version = payload.get("version", "latest")
        return self._require_rollout().begin(version)

    def _rollout_decide(self, action: str) -> dict:
        rollout = self._require_rollout()
        if action == "promote":
            return rollout.promote(reason="operator request")
        return rollout.rollback(reason="operator request")

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _handle(self, endpoint) -> None:
        try:
            payload = self._read_json()
            response = endpoint(payload)
        except ServeClientError as exc:
            obs.get_registry().counter("fleet.errors_total").inc()
            if exc.status in (0, 503):
                # Worker saturation (with its Retry-After hint) and
                # fleet-wide unreachability both mean "try again soon".
                retry_after = exc.retry_after if exc.retry_after else 1
                self._send_json(503, {"error": str(exc)},
                                extra_headers={
                                    "Retry-After": str(retry_after)})
            elif 400 <= exc.status < 600:
                self._send_json(exc.status, {"error": str(exc)})
            else:
                self._send_json(502, {"error": str(exc)})
        except RolloutError as exc:
            obs.get_registry().counter("fleet.errors_total").inc()
            self._send_json(409, {"error": str(exc)})
        except (ValueError, KeyError) as exc:
            obs.get_registry().counter("fleet.errors_total").inc()
            message = exc.args[0] if exc.args else str(exc)
            self._send_json(400, {"error": str(message)})
        except Exception as exc:  # repro: ignore[RPR103] — mapped to a 500 response
            obs.get_registry().counter("fleet.errors_total").inc()
            self._send_json(500, {"error": f"internal error: {exc}"})
        else:
            self._send_json(200, response)


class RouterServer(ThreadedJsonServer):
    """The fleet's HTTP front door around one :class:`FleetRouter`.

    Same transport behaviour as the single-process
    :class:`~repro.serve.server.EstimationServer` — keep-alive
    connections, graceful drain on ``stop()`` — so clients cannot tell
    a router from a worker except by the extra response fields and the
    ``/fleet/*`` endpoints.
    """

    def __init__(self, router: FleetRouter, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        super().__init__(_RouterHandler, host=host, port=port,
                         thread_name="repro-fleet-http", router=router)
        self._router = router

    @property
    def router(self) -> FleetRouter:
        """The wrapped router."""
        return self._router

    def _on_stop(self, drain: bool) -> None:
        """Close the router's fan-out executor after the listener stops."""
        self._router.close()
