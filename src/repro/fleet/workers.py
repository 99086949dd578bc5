"""Worker handles, the live worker pool, and the crash-restart supervisor.

Three layers:

* **Handles** wrap one worker wherever it runs.
  :class:`ProcessWorker` spawns ``python -m repro.fleet.worker`` as a
  subprocess, reads the one ``ready`` line it prints (which carries
  its ephemeral port) and from then on talks to it only over HTTP,
  like any client; its stdin is a pipe the worker reads only for EOF.
  :class:`LocalWorker` hosts the same
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

Every handle exposes ``drain()`` (graceful: in-flight work completes;
a process worker's stdin is closed, its cue to drain and exit) and
``terminate()`` (hard stop: a process worker is killed); the
supervisor's ``stop()`` walks the pool so no spawned child outlives
the fleet — the invariant ``tests/fleet/test_workers.py`` and
``tests/fleet/test_thread_drain.py`` check at runtime (child reaped
with its exit code, no thread left behind).
"""

from __future__ import annotations

import json
import os
import select
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

    def drain(self) -> None:
        """Stop gracefully: in-flight/queued requests complete first."""
        raise NotImplementedError

    def terminate(self) -> None:
        """Stop now, without waiting for in-flight requests."""
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
    """A worker subprocess, served over HTTP.

    ``start()`` spawns ``python -m repro.fleet.worker`` and reads its
    ``ready`` line (which carries the ephemeral port) within
    ``start_timeout``; a child that exits first fails the start at
    once with its exit code.  A failed start kills and reaps the child
    before it raises.  ``drain()`` closes the child's stdin, on which
    it drains and exits, and kills it if it has not exited within
    ``stop_timeout``; ``terminate()`` kills it.  Both reap it.
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
        self.pid: int | None = None

    def start(self) -> "ProcessWorker":
        """Spawn the subprocess and read its ``ready`` line."""
        if self._proc is not None:
            raise WorkerError(f"worker {self.worker_id} already started")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [_repro_pythonpath()]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self._proc = subprocess.Popen(
            self._argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=None, env=env)
        try:
            ready = self._read_ready()
        except WorkerError:
            self._stop(grace=0.0)
            raise
        finally:
            self._proc.stdout.close()  # the worker writes nothing more
        self.url = str(ready["url"])
        self.model_version = str(ready.get("model_version", ""))
        self.pid = ready.get("pid")
        return self

    def _read_ready(self) -> dict:
        """The child's first stdout line, which must be its ``ready``
        event with a ``url``."""
        proc = self._proc
        line = b""
        while not line.endswith(b"\n"):
            if not select.select([proc.stdout], [], [],
                                 self._start_timeout)[0]:
                raise WorkerError(
                    f"worker {self.worker_id} sent no ready line within "
                    f"{self._start_timeout}s")
            chunk = os.read(proc.stdout.fileno(), 4096)
            if not chunk:
                try:
                    code = proc.wait(timeout=self._stop_timeout)
                except subprocess.TimeoutExpired:
                    code = None
                raise WorkerError(
                    f"worker {self.worker_id} exited before it was ready "
                    f"(exit code {code})")
            line += chunk
        try:
            ready = json.loads(line)
        except ValueError:  # not UTF-8, or not JSON
            ready = None
        if not (isinstance(ready, dict) and ready.get("url")):
            raise WorkerError(f"worker {self.worker_id} sent no url in its "
                              f"ready line {line[:200]!r}")
        return ready

    def alive(self) -> bool:
        """True while the subprocess is running."""
        return self._proc is not None and self._proc.poll() is None

    def drain(self) -> None:
        """Graceful stop: close the child's stdin, wait for it to exit,
        kill it after ``stop_timeout``."""
        self._stop(grace=self._stop_timeout)

    def terminate(self) -> None:
        """Hard stop: kill the child and reap it."""
        self._stop(grace=0.0)

    def _stop(self, grace: float) -> None:
        proc = self._proc
        if proc is None:
            return
        self._close_client()
        proc.stdin.close()
        if grace:
            try:
                proc.wait(timeout=grace)
                return
            except subprocess.TimeoutExpired:
                pass  # hung while draining: kill it below
        proc.kill()  # a no-op once the child has exited
        proc.wait()


class LocalWorker(WorkerHandle):
    """An in-process worker: the same HTTP surface on a thread.

    Tests and single-process deployments use this — routing, draining,
    and rollout logic cannot tell it from a :class:`ProcessWorker`,
    but there is no interpreter boundary (and therefore no real CPU
    parallelism).  ``fail()`` simulates a crash: the port closes and
    the worker reports itself dead, exactly what the router's sibling
    retry and the supervisor's restart path must absorb.
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

    def drain(self) -> None:
        """Stop the embedded server: in-flight requests complete first."""
        if self._alive:
            self._alive = False
            self._close_client()
            self._server.stop()

    def terminate(self) -> None:
        """The same stop as :meth:`drain`: a thread cannot be killed."""
        self.drain()

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
