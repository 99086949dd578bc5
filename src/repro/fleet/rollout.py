"""Zero-downtime model rollout with a telemetry-gated canary.

State machine (all transitions recorded in ``history``)::

    idle ──begin()──▶ warming ──▶ canary ──promote()──▶ promoted
                         │           │
                         │           └──rollback()──▶ rolled_back
                         └──(spawn failure)─────────▶ rolled_back

``begin(version)`` resolves the candidate artifact from the
:class:`~repro.serve.registry.ModelRegistry`, spawns a *candidate*
worker pool next to the live one, and warms it with the statements
the router answered recently, posted to each candidate's
``/v1/estimate_batch`` like any client's batches.  During
**canary**, the router's hooks feed this manager live traffic:

* ``on_estimate`` mirrors a deterministic fraction of single-estimate
  traffic to the candidate pool (keyed on the statement fingerprint,
  so the same statements are always mirrored — comparisons stay
  apples-to-apples) and records baseline vs. candidate latency into
  the windowed ``fleet.canary.latency`` histogram and the two latency
  SLO trackers.
* ``on_feedback`` mirrors *every* feedback report: the baseline
  worker's observed q-error and the candidate's own re-estimated
  q-error land in the windowed ``fleet.canary.qerror`` histogram under
  their ``deployment`` label — the windowed accuracy comparison the
  gate reads.

Once both deployments have at least ``gate.min_feedback`` q-error
observations in the window, the gate evaluates automatically: the
candidate **promotes** iff its windowed p95 q-error is within
``gate.max_qerror_ratio`` of the baseline's *and* its short-window
latency SLO burn rate is at most ``gate.max_latency_burn``; otherwise
it **rolls back**.  A candidate worker becoming unreachable during
canary also rolls back immediately.

Promotion is the zero-downtime hot-swap: point the registry's
``latest`` at the candidate (so restarts and new workers load it),
atomically swap the candidate handles into the routing pool (requests
flip worker sets between two consecutive lookups — none are dropped),
then gracefully drain the displaced baseline workers, whose in-flight
requests all complete.  Rollback pins ``latest`` back to the baseline
version — the bad candidate stays published but is never resolved —
and terminates the candidate pool.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Callable

from repro import obs
from repro.fleet.hashring import _hash64
from repro.fleet.workers import (
    WorkerHandle,
    WorkerPool,
    WorkerSupervisor,
    start_workers,
)
from repro.serve.client import ServeClientError
from repro.serve.http import MAX_BODY_BYTES
from repro.serve.registry import ModelRegistry

__all__ = ["RolloutError", "RolloutGate", "RolloutManager"]

#: Ticks a canary histogram window spans (fixed so begin() can flush it).
_WINDOW_TICKS = 8
#: Ticks the SLO trackers' long burn window spans (same reason).
_SLO_LONG_TICKS = 12
_SLO_SHORT_TICKS = 3

#: Mirror-decision resolution: fractions are compared at one-in-a-million
#: granularity against the statement fingerprint's stable 64-bit hash.
_MIRROR_SCALE = 1_000_000


def _warm_batches(sqls: list[str]) -> list[list[str]]:
    """``sqls`` in order, cut into as few ``/v1/estimate_batch`` bodies
    as keep each within :data:`~repro.serve.http.MAX_BODY_BYTES`.

    Sizes are those of the body ``ServeClient`` sends,
    ``json.dumps({"sql": batch})``: 11 bytes plus each statement's JSON
    string, with ``", "`` between statements.
    """
    batches: list[list[str]] = []
    size = MAX_BODY_BYTES  # no open batch yet
    for sql in sqls:
        item = len(json.dumps(sql)) + 2  # the string and its ", "
        if size + item > MAX_BODY_BYTES:
            batches.append([])
            size = len(json.dumps({"sql": []})) - 2  # no ", " before the first
        batches[-1].append(sql)
        size += item
    return batches


class RolloutError(RuntimeError):
    """An invalid rollout transition (nothing to promote, busy, ...)."""


@dataclass(frozen=True)
class RolloutGate:
    """The promotion gate's thresholds.

    min_feedback:
        Q-error observations required *per deployment* before the gate
        evaluates — an accuracy verdict on three queries is noise.
    max_qerror_ratio:
        The candidate's windowed p95 q-error may exceed the baseline's
        by at most this factor.
    max_latency_burn:
        Upper bound on the candidate's short-window latency SLO burn
        rate (1.0 = exactly spending its error budget).
    """

    min_feedback: int = 32
    max_qerror_ratio: float = 1.25
    max_latency_burn: float = 2.0


class RolloutManager:
    """Drives canary → promote/rollback for one model on one fleet.

    Parameters
    ----------
    registry:
        The model registry both worker generations load from.
    model:
        The published model name being rolled out.
    supervisor:
        The live fleet's supervisor; its pool is the routing pool the
        promote step swaps.
    candidate_factory:
        ``(worker_id, version) -> started WorkerHandle`` building one
        *candidate* worker pinned to the candidate version.
    gate / mirror_fraction:
        Gate thresholds and the fraction of single-estimate traffic
        mirrored to the candidate during canary.
    latency_slo / slo_objective:
        Target seconds and objective for the two canary latency SLO
        trackers.
    """

    def __init__(self, registry: ModelRegistry, model: str,
                 supervisor: WorkerSupervisor,
                 candidate_factory: Callable[[str, int], WorkerHandle],
                 gate: RolloutGate | None = None,
                 mirror_fraction: float = 1.0,
                 latency_slo: float = 0.5,
                 slo_objective: float = 0.95) -> None:
        if not 0.0 <= mirror_fraction <= 1.0:
            raise ValueError(
                f"mirror_fraction must be in [0, 1], got {mirror_fraction}")
        self._registry = registry
        self._model = model
        self._supervisor = supervisor
        self._candidate_factory = candidate_factory
        self._gate = gate if gate is not None else RolloutGate()
        self._mirror_threshold = int(mirror_fraction * _MIRROR_SCALE)
        self._router = None
        self._lock = threading.Lock()
        self._state = "idle"
        self._baseline_version: int | None = None
        self._candidate_version: int | None = None
        self._candidates: tuple[WorkerHandle, ...] = ()
        self._counts = {"baseline": 0, "candidate": 0}
        self._decision: dict | None = None
        self._history: list[dict] = []
        metrics = obs.get_registry()
        self._qerror_window = metrics.histogram(
            "fleet.canary.qerror", label_names=("deployment",),
            window_ticks=_WINDOW_TICKS)
        self._latency_window = metrics.histogram(
            "fleet.canary.latency", label_names=("deployment",),
            window_ticks=_WINDOW_TICKS)
        self._baseline_latency_slo = metrics.slo(
            "fleet.canary.baseline.latency.slo", target=latency_slo,
            objective=slo_objective, short_ticks=_SLO_SHORT_TICKS,
            long_ticks=_SLO_LONG_TICKS)
        self._candidate_latency_slo = metrics.slo(
            "fleet.canary.candidate.latency.slo", target=latency_slo,
            objective=slo_objective, short_ticks=_SLO_SHORT_TICKS,
            long_ticks=_SLO_LONG_TICKS)

    @property
    def gate(self) -> RolloutGate:
        """The promotion gate in force."""
        return self._gate

    @property
    def state(self) -> str:
        """The rollout state machine's current state."""
        return self._state

    def bind(self, router) -> None:
        """Attach this manager to its router (hooks + warm-up source)."""
        self._router = router
        router.set_rollout(self)

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------

    def begin(self, version: int | str = "latest") -> dict:
        """Publish → warm → canary: start rolling ``version`` out."""
        candidate = self._registry.resolve(self._model, version)
        baseline = self._registry.resolve(self._model)
        with self._lock:
            if self._state in ("warming", "canary"):
                raise RolloutError(
                    f"a rollout is already {self._state}; promote or "
                    f"roll it back first")
            self._state = "warming"
            self._baseline_version = baseline.version
            self._candidate_version = candidate.version
            self._counts = {"baseline": 0, "candidate": 0}
            self._decision = None
            self._history.append({"state": "warming",
                                  "baseline": baseline.version,
                                  "candidate": candidate.version})
        width = max(len(self._supervisor.pool), 1)
        handles: list[WorkerHandle] = []
        try:
            handles = start_workers(
                lambda worker_id: self._candidate_factory(
                    worker_id, candidate.version),
                [f"c{index}" for index in range(width)])
            warm_sql = (self._router.recent_sql()
                        if self._router is not None else [])
            for batch in _warm_batches(warm_sql):
                for handle in handles:
                    handle.client.estimate_batch(batch)
        except Exception as exc:  # repro: ignore[RPR103] — a failed candidate spawn must settle the state machine, whatever broke
            for handle in handles:
                handle.terminate()
            with self._lock:
                self._state = "rolled_back"
                self._decision = {"outcome": "rollback",
                                  "reason": f"candidate spawn failed: "
                                            f"{exc}"}
                self._history.append({"state": "rolled_back",
                                      "reason": str(exc)})
            raise RolloutError(
                f"candidate workers failed to start: {exc}") from exc
        self._flush_windows()
        with self._lock:
            self._candidates = tuple(handles)
            self._state = "canary"
            self._history.append({"state": "canary",
                                  "workers": [h.worker_id for h in handles]})
        return self.status()

    def promote(self, reason: str = "gate passed") -> dict:
        """Hot-swap the candidate into live routing (see module docs)."""
        with self._lock:
            if self._state != "canary":
                raise RolloutError(
                    f"cannot promote from state {self._state!r}")
            self._state = "promoting"
            candidate_version = self._candidate_version
            candidates = self._candidates
        self._registry.set_latest(self._model, candidate_version)
        displaced = self._supervisor.pool.swap(list(candidates))
        for handle in displaced:
            self._supervisor.forget(handle.worker_id)
        for handle in candidates:
            self._supervisor.watch(handle.worker_id)
        for handle in displaced:
            handle.drain()
        with self._lock:
            self._state = "promoted"
            self._candidates = ()
            self._decision = {"outcome": "promote", "reason": reason}
            self._history.append({"state": "promoted", "reason": reason})
        return self.status()

    def rollback(self, reason: str = "gate failed") -> dict:
        """Abandon the candidate and pin ``latest`` to the baseline."""
        with self._lock:
            if self._state not in ("canary", "warming"):
                raise RolloutError(
                    f"cannot roll back from state {self._state!r}")
            self._state = "rolling_back"
            baseline_version = self._baseline_version
            candidates = self._candidates
        self._registry.set_latest(self._model, baseline_version)
        for handle in candidates:
            handle.terminate()
        with self._lock:
            self._state = "rolled_back"
            self._candidates = ()
            self._decision = {"outcome": "rollback", "reason": reason}
            self._history.append({"state": "rolled_back", "reason": reason})
        return self.status()

    # ------------------------------------------------------------------
    # Router hooks (canary traffic)
    # ------------------------------------------------------------------

    def should_mirror(self, fingerprint: str) -> bool:
        """Deterministic mirror decision for one statement fingerprint."""
        return (_hash64("mirror:" + fingerprint) % _MIRROR_SCALE
                < self._mirror_threshold)

    def on_estimate(self, sql: str, fingerprint: str, response: dict,
                    seconds: float, trace_id: int | None) -> None:
        """Router hook: observe baseline latency, maybe mirror."""
        if self._state != "canary":
            return
        self._latency_window.record(seconds, deployment="baseline")
        self._baseline_latency_slo.observe(seconds)
        if not self.should_mirror(fingerprint):
            return
        handle = self._candidate_for(fingerprint)
        if handle is None:
            return
        obs.get_registry().counter("fleet.mirrored_total").inc()
        watch = obs.get_event_log().stopwatch()
        try:
            with watch:
                handle.client.estimate(sql, trace_id=trace_id)
        except ServeClientError as exc:
            if exc.status == 0:
                # The candidate crashed under mirrored traffic — the
                # strongest possible gate failure.
                self.rollback(reason=f"candidate worker "
                                     f"{handle.worker_id} unreachable: "
                                     f"{exc}")
            else:
                obs.get_registry().counter(
                    "fleet.canary.candidate_errors_total").inc()
            return
        self._latency_window.record(watch.seconds, deployment="candidate")
        self._candidate_latency_slo.observe(watch.seconds)

    def on_feedback(self, sql: str, true_cardinality: float,
                    baseline_response: dict,
                    trace_id: int | None) -> None:
        """Router hook: mirror feedback, feed the q-error windows."""
        if self._state != "canary":
            return
        fingerprint_qerror = baseline_response.get("qerror")
        if isinstance(fingerprint_qerror, (int, float)):
            self._qerror_window.record(float(fingerprint_qerror),
                                       deployment="baseline")
            with self._lock:
                self._counts["baseline"] += 1
        handle = self._candidate_for(sql)
        if handle is None:
            return
        try:
            # estimate=None on purpose: the candidate re-estimates with
            # its own model, so its q-error reflects *its* accuracy.
            mirrored = handle.client.feedback(sql, true_cardinality,
                                              trace_id=trace_id)
        except ServeClientError as exc:
            if exc.status == 0:
                self.rollback(reason=f"candidate worker "
                                     f"{handle.worker_id} unreachable: "
                                     f"{exc}")
            else:
                obs.get_registry().counter(
                    "fleet.canary.candidate_errors_total").inc()
            return
        candidate_qerror = mirrored.get("qerror")
        if isinstance(candidate_qerror, (int, float)):
            self._qerror_window.record(float(candidate_qerror),
                                       deployment="candidate")
            with self._lock:
                self._counts["candidate"] += 1
        self._maybe_evaluate()

    # ------------------------------------------------------------------
    # Gate
    # ------------------------------------------------------------------

    def evaluate(self) -> tuple[bool, str]:
        """The gate's verdict right now: ``(should_promote, reason)``."""
        baseline_p95 = self._qerror_window.quantile(0.95,
                                                    deployment="baseline")
        candidate_p95 = self._qerror_window.quantile(0.95,
                                                     deployment="candidate")
        if baseline_p95 is None or candidate_p95 is None:
            return False, "insufficient q-error observations"
        bound = baseline_p95 * self._gate.max_qerror_ratio
        if candidate_p95 > bound:
            return False, (f"candidate p95 q-error {candidate_p95:.4g} "
                           f"exceeds baseline {baseline_p95:.4g} x "
                           f"{self._gate.max_qerror_ratio} = {bound:.4g}")
        burn = self._candidate_latency_slo.burn_rate("short")
        if burn > self._gate.max_latency_burn:
            return False, (f"candidate latency SLO burn {burn:.4g} "
                           f"exceeds bound {self._gate.max_latency_burn}")
        return True, (f"candidate p95 q-error {candidate_p95:.4g} within "
                      f"{self._gate.max_qerror_ratio}x of baseline "
                      f"{baseline_p95:.4g}; latency burn {burn:.4g} <= "
                      f"{self._gate.max_latency_burn}")

    def _maybe_evaluate(self) -> None:
        """Auto-decide once both deployments have enough feedback."""
        with self._lock:
            if self._state != "canary":
                return
            ready = (self._counts["baseline"] >= self._gate.min_feedback
                     and self._counts["candidate"]
                     >= self._gate.min_feedback)
        if not ready:
            return
        should_promote, reason = self.evaluate()
        try:
            if should_promote:
                self.promote(reason=reason)
            else:
                self.rollback(reason=reason)
        except RolloutError:
            pass  # a concurrent hook already decided; its verdict stands

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def status(self) -> dict:
        """The rollout document served under ``/fleet/status``."""
        with self._lock:
            return {
                "state": self._state,
                "model": self._model,
                "baseline_version": self._baseline_version,
                "candidate_version": self._candidate_version,
                "candidate_workers": [handle.worker_id
                                      for handle in self._candidates],
                "feedback_counts": dict(self._counts),
                "min_feedback": self._gate.min_feedback,
                "decision": self._decision,
                "history": list(self._history),
            }

    # ------------------------------------------------------------------

    def _candidate_for(self, key: str) -> WorkerHandle | None:
        """The candidate worker owning ``key``, or ``None`` mid-teardown."""
        candidates = self._candidates
        if not candidates:
            return None
        ring_pool = WorkerPool()
        # Tiny pools (and rollback racing a mirror) make a scratch ring
        # cheaper and simpler than maintaining a second live pool.
        for handle in candidates:
            ring_pool.add(handle)
        try:
            return ring_pool.preference(key, 1)[0]
        except (KeyError, IndexError):
            return None

    def _flush_windows(self) -> None:
        """Advance the canary monitors past their window span, so a new
        canary never reads a previous rollout's observations."""
        for _ in range(_WINDOW_TICKS):
            self._qerror_window.advance()
            self._latency_window.advance()
        for _ in range(_SLO_LONG_TICKS):
            self._baseline_latency_slo.advance()
            self._candidate_latency_slo.advance()
