"""Worker handles, the live worker pool, and the crash-restart supervisor.

Three layers:

* **Handles** wrap one worker wherever it runs.
  :class:`ProcessWorker` spawns ``python -m repro.fleet.worker`` as a
  subprocess and speaks the JSON control channel over its
  stdin/stdout (spawn → ``ready``, then ``warm`` / ``drain`` /
  ``terminate``); :class:`LocalWorker` hosts the same
  :class:`~repro.serve.server.EstimationServer` on a thread in this
  process — byte-compatible HTTP surface, no process boundary — which
  is what the fleet tests and single-process deployments use.
* :class:`WorkerPool` is the routing view: the live ``worker_id →
  handle`` map plus the consistent-hash ring over the ids.  Replacing
  a crashed worker re-binds the *same* id to a fresh handle, so the
  ring (and therefore key placement) is untouched by restarts.
* :class:`WorkerSupervisor` keeps the pool populated: it spawns
  workers through a caller-provided factory, polls liveness, and
  restarts dead workers with exponential backoff, re-adding them under
  their old id.

:func:`start_workers` starts a fleet's workers concurrently, all or
nothing; the supervisor's initial spawn and a rollout's candidate pool
both go through it.

Every handle exposes ``drain()`` (graceful: in-flight work completes)
and ``terminate()`` (hard stop); the supervisor's ``stop()`` walks the
pool so no spawned child outlives the fleet — the invariant
``tests/fleet/test_workers.py`` and ``tests/fleet/test_thread_drain.py``
check at runtime (child reaped, reader thread joined).
"""

from __future__ import annotations

import json
import os
import queue
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Sequence

from repro import obs
from repro.fleet.hashring import DEFAULT_REPLICAS, HashRing
from repro.serve.client import ServeClient

__all__ = ["WorkerError", "WorkerHandle", "ProcessWorker", "LocalWorker",
           "WorkerPool", "WorkerSupervisor", "start_workers"]

#: Event the reader thread queues when the child's stdout closes; no
#: worker event has this name.
_END_OF_STREAM = "end-of-stream"


class WorkerError(RuntimeError):
    """A worker failed to start, answer, or stop in time."""


class WorkerHandle:
    """Common surface of one running worker (process-backed or local)."""

    def __init__(self, worker_id: str) -> None:
        self.worker_id = worker_id
        self.url: str = ""
        self.model_version: str = ""
        self._client: ServeClient | None = None

    @property
    def client(self) -> ServeClient:
        """A (lazily created) keep-alive client for this worker's API."""
        if self._client is None:
            if not self.url:
                raise WorkerError(
                    f"worker {self.worker_id} has no URL yet (not started?)")
            self._client = ServeClient(self.url, timeout=30.0)
        return self._client

    def alive(self) -> bool:
        """Whether the worker is believed able to answer requests."""
        raise NotImplementedError

    def warm(self, sqls: list[str]) -> None:
        """Pre-touch the worker's caches with representative SQL."""
        raise NotImplementedError

    def drain(self) -> None:
        """Stop gracefully: in-flight/queued requests complete first."""
        raise NotImplementedError

    def terminate(self) -> None:
        """Stop immediately; queued work may be cancelled."""
        raise NotImplementedError

    def _close_client(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None

    def describe(self) -> dict:
        """Status row for ``fleet status`` / the router's health view."""
        return {
            "worker_id": self.worker_id,
            "url": self.url,
            "model_version": self.model_version,
            "alive": self.alive(),
            "kind": type(self).__name__,
        }


def _repro_pythonpath() -> str:
    """PYTHONPATH entry that makes ``import repro`` work in a child."""
    import repro

    return str(Path(repro.__file__).resolve().parent.parent)


class ProcessWorker(WorkerHandle):
    """A worker subprocess driven over the JSON control channel.

    ``start()`` spawns ``python -m repro.fleet.worker``, waits for its
    ``ready`` line (which carries the ephemeral port), and wires a
    reader thread that turns every later stdout line into a queued
    control event, and the end of stdout into a last one, so a wait on
    a child that has exited fails at once instead of timing out.  A
    failed start kills and reaps the child before it raises.
    ``drain``/``terminate`` send the matching command and fall back to
    ``SIGTERM``/``SIGKILL`` if the channel is dead.
    """

    def __init__(self, worker_id: str, registry_root: str | Path,
                 model: str, version: int | str = "latest",
                 host: str = "127.0.0.1", cache_size: int = 1024,
                 max_inflight: int = 256, tick_every: int = 64,
                 start_timeout: float = 60.0,
                 stop_timeout: float = 30.0) -> None:
        super().__init__(worker_id)
        self._argv = [
            sys.executable, "-m", "repro.fleet.worker",
            "--registry", str(registry_root),
            "--model", model,
            "--version", str(version),
            "--worker-id", worker_id,
            "--host", host,
            "--cache-size", str(cache_size),
            "--max-inflight", str(max_inflight),
            "--tick-every", str(tick_every),
        ]
        self._start_timeout = start_timeout
        self._stop_timeout = stop_timeout
        self._proc: subprocess.Popen | None = None
        self._events: queue.Queue[dict] = queue.Queue()
        self._reader: threading.Thread | None = None
        self.pid: int | None = None

    def start(self) -> "ProcessWorker":
        """Spawn the subprocess and wait for its ``ready`` event."""
        if self._proc is not None:
            raise WorkerError(f"worker {self.worker_id} already started")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [_repro_pythonpath()]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self._proc = subprocess.Popen(
            self._argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=None, text=True, bufsize=1, env=env)
        # Daemon as a crash backstop only; joined on every stop path.
        self._reader = threading.Thread(
            target=self._read_events,
            name=f"repro-fleet-reader-{self.worker_id}", daemon=True)
        self._reader.start()
        try:
            ready = self._wait_event("ready", self._start_timeout)
            if not ready.get("url"):
                raise WorkerError(
                    f"worker {self.worker_id} ready event carried no url")
        except WorkerError:
            self._proc.kill()  # no-op once the child has exited
            self._shutdown("terminate")
            raise
        self.url = str(ready["url"])
        self.model_version = str(ready.get("model_version", ""))
        self.pid = ready.get("pid")
        return self

    def _read_events(self) -> None:
        proc = self._proc
        if proc is None or proc.stdout is None:
            return
        for line in proc.stdout:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue  # stray non-protocol output; ignore
            if isinstance(event, dict):
                self._events.put(event)
        self._events.put({"event": _END_OF_STREAM})

    def _wait_event(self, name: str, timeout: float) -> dict:
        """Next event named ``name`` (errors surface; others dropped)."""
        try:
            while True:
                event = self._events.get(timeout=timeout)
                kind = event.get("event")
                if kind == name:
                    return event
                if kind == "error":
                    raise WorkerError(
                        f"worker {self.worker_id} error: "
                        f"{event.get('detail')}")
                if kind == _END_OF_STREAM:
                    self._events.put(event)  # later waits fail at once too
                    raise WorkerError(
                        f"worker {self.worker_id} exited before its "
                        f"{name!r} event (exit code {self._exit_code()})")
        except queue.Empty:
            raise WorkerError(
                f"worker {self.worker_id} sent no {name!r} event within "
                f"{timeout}s (exit code "
                f"{self._proc.poll() if self._proc else None})") from None

    def _exit_code(self) -> int | None:
        """The child's exit code once it has exited (it has closed its
        stdout), or ``None`` if it is still running after the stop
        timeout."""
        try:
            return self._proc.wait(timeout=self._stop_timeout)
        except subprocess.TimeoutExpired:
            return None

    def _send(self, command: dict) -> None:
        proc = self._proc
        if proc is None or proc.stdin is None or proc.poll() is not None:
            raise WorkerError(
                f"worker {self.worker_id} control channel is closed")
        try:
            proc.stdin.write(json.dumps(command) + "\n")
            proc.stdin.flush()
        except (OSError, ValueError) as exc:
            raise WorkerError(
                f"worker {self.worker_id} control write failed: {exc}"
            ) from exc

    def alive(self) -> bool:
        """True while the subprocess is running."""
        return self._proc is not None and self._proc.poll() is None

    def warm(self, sqls: list[str]) -> None:
        """Ask the worker to pre-run ``sqls`` through its service."""
        self._send({"cmd": "warm", "sql": list(sqls)})
        self._wait_event("warmed", self._start_timeout)

    def drain(self) -> None:
        """Graceful stop: ``drain`` command, then wait for exit."""
        self._shutdown("drain")

    def terminate(self) -> None:
        """Hard stop: ``terminate`` command, escalate to signals."""
        self._shutdown("terminate")

    def _shutdown(self, mode: str) -> None:
        proc = self._proc
        if proc is None:
            return
        self._close_client()
        if proc.poll() is None:
            try:
                self._send({"cmd": mode})
            except WorkerError:
                proc.terminate()
            try:
                proc.wait(timeout=self._stop_timeout)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        if proc.stdin is not None:
            try:
                proc.stdin.close()
            except OSError:
                pass  # pipe already gone with the process
        if self._reader is not None:
            self._reader.join(timeout=5.0)
            self._reader = None


class LocalWorker(WorkerHandle):
    """An in-process worker: the same HTTP surface on a thread.

    Tests and single-process deployments use this — routing, draining,
    and rollout logic cannot tell it from a :class:`ProcessWorker`,
    but there is no interpreter boundary (and therefore no real CPU
    parallelism).  ``fail()`` simulates a crash: the port closes
    without draining, exactly what the router's sibling retry and the
    supervisor's restart path must absorb.
    """

    def __init__(self, worker_id: str, service, host: str = "127.0.0.1"
                 ) -> None:
        super().__init__(worker_id)
        from repro.serve.server import EstimationServer

        self._service = service
        self._server = EstimationServer(service, host=host, port=0)
        self._alive = False

    @property
    def service(self):
        """The wrapped in-process estimation service."""
        return self._service

    def start(self) -> "LocalWorker":
        """Start the embedded server; fills in ``url``."""
        self._server.start()
        self.url = self._server.url
        self.model_version = self._service.model_version
        self._alive = True
        return self

    def alive(self) -> bool:
        """True until drained, terminated, or failed."""
        return self._alive

    def warm(self, sqls: list[str]) -> None:
        """Run ``sqls`` through the service to heat its caches."""
        if sqls:
            self._service.estimate_many_sql(list(sqls))

    def drain(self) -> None:
        """Graceful stop of the embedded server."""
        if self._alive:
            self._alive = False
            self._close_client()
            self._server.stop(drain=True)

    def terminate(self) -> None:
        """Hard stop of the embedded server."""
        if self._alive:
            self._alive = False
            self._close_client()
            self._server.stop(drain=False)

    def fail(self) -> None:
        """Simulate a crash: close the port, mark the worker dead."""
        self.terminate()


class WorkerPool:
    """The live worker set and its consistent-hash routing ring.

    All mutation and lookup happens under one lock (membership changes
    are rare and lookups are a bisect — contention is negligible), so
    the router can read while the supervisor or a rollout rewires.
    """

    def __init__(self, replicas: int = DEFAULT_REPLICAS) -> None:
        self._lock = threading.Lock()
        self._workers: dict[str, WorkerHandle] = {}
        self._ring = HashRing(replicas=replicas)

    def add(self, handle: WorkerHandle) -> None:
        """Add (or re-bind) ``handle`` under its worker id."""
        with self._lock:
            self._workers[handle.worker_id] = handle
            self._ring.add(handle.worker_id)

    def remove(self, worker_id: str) -> WorkerHandle | None:
        """Drop a worker from routing; returns its handle if present."""
        with self._lock:
            handle = self._workers.pop(worker_id, None)
            self._ring.remove(worker_id)
            return handle

    def get(self, worker_id: str) -> WorkerHandle | None:
        """The current handle bound to ``worker_id`` (None if gone)."""
        with self._lock:
            return self._workers.get(worker_id)

    def ids(self) -> tuple[str, ...]:
        """Member worker ids, sorted."""
        with self._lock:
            return tuple(sorted(self._workers))

    def handles(self) -> tuple[WorkerHandle, ...]:
        """Member handles, in sorted-id order."""
        with self._lock:
            return tuple(self._workers[worker_id]
                         for worker_id in sorted(self._workers))

    def __len__(self) -> int:
        with self._lock:
            return len(self._workers)

    def preference(self, key: str, count: int) -> list[WorkerHandle]:
        """Up to ``count`` distinct handles in ring order from ``key``."""
        with self._lock:
            ids = self._ring.preference(key, count)
            return [self._workers[worker_id] for worker_id in ids
                    if worker_id in self._workers]

    def swap(self, handles: list[WorkerHandle]
             ) -> tuple[WorkerHandle, ...]:
        """Atomically replace the whole membership (rollout promote).

        Returns the displaced handles so the caller can drain them
        *after* routing has already moved — the zero-downtime order.
        """
        with self._lock:
            old = tuple(self._workers[worker_id]
                        for worker_id in sorted(self._workers))
            self._workers = {handle.worker_id: handle
                             for handle in handles}
            self._ring = HashRing(tuple(self._workers),
                                  replicas=self._ring.replicas)
            return old


def start_workers(factory: Callable[[str], WorkerHandle],
                  worker_ids: Sequence[str]) -> list[WorkerHandle]:
    """Start one worker per id concurrently, all or nothing.

    ``factory(worker_id)`` must return a started handle.  Returns the
    handles in ``worker_ids`` order.  If any start raises, every worker
    that did start is terminated and the first failure, in id order, is
    raised.  The start threads are joined before this returns.
    """
    with ThreadPoolExecutor(max_workers=max(len(worker_ids), 1),
                            thread_name_prefix="repro-fleet-start") as starts:
        futures = [starts.submit(factory, worker_id)
                   for worker_id in worker_ids]
    failures = [future.exception() for future in futures]
    handles = [future.result() for future, failure in zip(futures, failures)
               if failure is None]
    failure = next((exc for exc in failures if exc is not None), None)
    if failure is not None:
        for handle in handles:
            try:
                handle.terminate()
            except WorkerError:
                pass  # already dead; nothing left to stop
        raise failure
    return handles


class WorkerSupervisor:
    """Keeps a :class:`WorkerPool` populated, restarting crashed workers.

    ``factory(worker_id)`` must return a *started* handle.  The monitor
    thread polls liveness; a dead worker is removed from routing,
    waited out with exponential backoff (doubling per consecutive
    failure up to ``backoff_max``), and respawned under the same id —
    the ring never changes shape, so no keys move on a restart.
    """

    def __init__(self, factory: Callable[[str], WorkerHandle],
                 pool: WorkerPool | None = None,
                 poll_interval: float = 0.25,
                 backoff_base: float = 0.5,
                 backoff_max: float = 8.0) -> None:
        self.pool = pool if pool is not None else WorkerPool()
        self._factory = factory
        self._poll_interval = poll_interval
        self._backoff_base = backoff_base
        self._backoff_max = backoff_max
        self._stop = threading.Event()
        self._monitor: threading.Thread | None = None
        self._lock = threading.Lock()
        self._supervised: set[str] = set()
        self._failures: dict[str, int] = {}
        self._restarts: dict[str, int] = {}

    def spawn(self, count: int, prefix: str = "w") -> list[WorkerHandle]:
        """Start ``count`` workers (ids ``<prefix>0..``) into the pool.

        The workers start concurrently and all or nothing (see
        :func:`start_workers`): if one fails, none joins the pool.
        """
        handles = start_workers(self._factory,
                                [f"{prefix}{index}" for index in range(count)])
        for handle in handles:
            self.pool.add(handle)
            with self._lock:
                self._supervised.add(handle.worker_id)
        return handles

    def adopt(self, handle: WorkerHandle) -> None:
        """Take over supervision of an externally started handle."""
        self.pool.add(handle)
        with self._lock:
            self._supervised.add(handle.worker_id)

    def release(self, worker_id: str) -> WorkerHandle | None:
        """Stop supervising (and routing to) a worker; returns it."""
        with self._lock:
            self._supervised.discard(worker_id)
            self._failures.pop(worker_id, None)
        return self.pool.remove(worker_id)

    def watch(self, worker_id: str) -> None:
        """Begin supervising a worker already present in the pool.

        Supervision bookkeeping only — the rollout promote path flips
        the whole pool membership atomically with ``pool.swap`` and
        then reconciles supervision with ``watch``/``forget``.
        """
        with self._lock:
            self._supervised.add(worker_id)

    def forget(self, worker_id: str) -> None:
        """Stop supervising a worker without touching the pool."""
        with self._lock:
            self._supervised.discard(worker_id)
            self._failures.pop(worker_id, None)

    def restarts(self) -> dict[str, int]:
        """Per-worker restart counts (for status/metrics)."""
        with self._lock:
            return dict(self._restarts)

    def start(self) -> "WorkerSupervisor":
        """Start the liveness monitor thread."""
        if self._monitor is not None:
            raise WorkerError("supervisor already started")
        self._stop.clear()
        self._monitor = threading.Thread(target=self._watch,
                                         name="repro-fleet-supervisor",
                                         daemon=True)
        self._monitor.start()
        return self

    def _watch(self) -> None:
        while not self._stop.wait(self._poll_interval):
            with self._lock:
                supervised = sorted(self._supervised)
            for worker_id in supervised:
                if self._stop.is_set():
                    return
                handle = self.pool.get(worker_id)
                if handle is not None and handle.alive():
                    with self._lock:
                        self._failures.pop(worker_id, None)
                    continue
                self._restart(worker_id, handle)

    def _restart(self, worker_id: str, dead: WorkerHandle | None) -> None:
        """Replace a dead worker under its old id, with backoff."""
        with self._lock:
            if worker_id not in self._supervised:
                return
            failures = self._failures.get(worker_id, 0)
            self._failures[worker_id] = failures + 1
        self.pool.remove(worker_id)
        if dead is not None:
            try:
                dead.terminate()  # reap the corpse / close sockets
            except WorkerError:
                pass  # already gone
        backoff = min(self._backoff_base * (2.0 ** failures),
                      self._backoff_max)
        if self._stop.wait(backoff):
            return
        try:
            handle = self._factory(worker_id)
        except Exception:  # repro: ignore[RPR103] — supervisor must outlive a failed spawn; retried next sweep
            obs.get_registry().counter(
                "fleet.worker.respawn_failures_total").inc()
            return
        self.pool.add(handle)
        with self._lock:
            self._restarts[worker_id] = self._restarts.get(worker_id, 0) + 1
        obs.get_registry().counter("fleet.worker.restarts_total").inc()

    def stop(self, drain: bool = True) -> None:
        """Stop monitoring and shut every supervised worker down."""
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join()
            self._monitor = None
        for handle in self.pool.handles():
            self.pool.remove(handle.worker_id)
            try:
                if drain:
                    handle.drain()
                else:
                    handle.terminate()
            except WorkerError:
                pass  # already dead; nothing left to stop
        with self._lock:
            self._supervised.clear()

    def __enter__(self) -> "WorkerSupervisor":
        """Start monitoring on context entry."""
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Drain the fleet on context exit."""
        self.stop(drain=True)
        return False
