"""``repro fleet`` subcommands: serve a fleet, drive a rollout.

* ``repro fleet serve --registry R --model M --workers N`` — spawn N
  worker subprocesses under a supervisor, put the consistent-hash
  router in front, attach a rollout manager, and serve until
  SIGTERM/SIGINT (graceful drain, like ``repro serve``).
* ``repro fleet status --url http://...`` — print the router's
  ``/fleet/status`` document (workers, rollout state, restarts).
* ``repro fleet rollout --url ... --version V`` — start a canary of a
  published version; the gate then auto-promotes or auto-rolls-back on
  live traffic (or force the decision with ``promote``/``rollback``).

These handlers live next to the fleet machinery rather than in
:mod:`repro.cli` so the top-level CLI only pays the fleet import when a
fleet command actually runs; :func:`add_fleet_parser` is the only hook
the top-level parser needs.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from pathlib import Path

from repro.fleet.rollout import RolloutGate, RolloutManager
from repro.fleet.router import FleetRouter, RouterServer
from repro.fleet.workers import ProcessWorker, WorkerError, WorkerSupervisor
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.registry import ModelRegistry

__all__ = ["add_fleet_parser", "build_parser"]


def _cmd_fleet_serve(args) -> int:
    registry_root = Path(args.registry)
    registry = ModelRegistry(registry_root)
    live = registry.resolve(args.model, args.version)
    print(f"fleet: serving {live.label()} from registry {registry_root}")

    def factory(worker_id: str, version: int | str = args.version
                ) -> ProcessWorker:
        return ProcessWorker(
            worker_id, registry_root, args.model, version=version,
            cache_size=args.cache_size,
            max_batch_size=args.max_batch_size,
            max_wait_ms=args.max_wait_ms,
            max_inflight=args.max_inflight,
            tick_every=args.tick_every).start()

    supervisor = WorkerSupervisor(factory)
    try:
        handles = supervisor.spawn(args.workers)
    except WorkerError as exc:
        print(f"fleet: workers failed to start: {exc}", file=sys.stderr)
        return 1
    for handle in handles:
        print(f"  worker {handle.worker_id}: {handle.url} "
              f"({handle.model_version})")
    supervisor.start()
    router = FleetRouter(supervisor.pool, supervisor=supervisor,
                         retries=args.retries)
    rollout = RolloutManager(
        registry, args.model, supervisor,
        candidate_factory=lambda worker_id, version: factory(worker_id,
                                                             version),
        gate=RolloutGate(min_feedback=args.min_feedback,
                         max_qerror_ratio=args.max_qerror_ratio,
                         max_latency_burn=args.max_latency_burn),
        mirror_fraction=args.mirror_fraction)
    rollout.bind(router)
    server = RouterServer(router, host=args.host, port=args.port)
    server.start()
    print(f"fleet router on {server.url} ({args.workers} workers, "
          f"retries {args.retries}, mirror {args.mirror_fraction}, "
          f"gate: {args.min_feedback} feedback / "
          f"{args.max_qerror_ratio}x q-error / "
          f"burn <= {args.max_latency_burn})")
    stop = getattr(args, "shutdown_event", None) or threading.Event()
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGINT, lambda signum, frame: stop.set())
        signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    ready_hook = getattr(args, "on_ready", None)
    if ready_hook is not None:
        ready_hook(server.url)
    stop.wait()
    print("fleet: draining router and workers ...")
    server.stop(drain=True)
    supervisor.stop(drain=True)
    print("fleet stopped")
    return 0


def _control_call(args, invoke) -> int:
    """Run one control-plane call against a live router; print the JSON."""
    with ServeClient(args.url, timeout=args.timeout) as client:
        try:
            document = invoke(client)
        except ServeClientError as exc:
            print(f"fleet control call error: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(document, indent=2, sort_keys=True))
    return 0


def _cmd_fleet_status(args) -> int:
    return _control_call(args,
                         lambda client: client.get_json("/fleet/status"))


def _cmd_fleet_rollout(args) -> int:
    return _control_call(
        args, lambda client: client.post_json(
            "/fleet/rollout", {"version": args.version}))


def _cmd_fleet_promote(args) -> int:
    return _control_call(
        args, lambda client: client.post_json("/fleet/promote", {}))


def _cmd_fleet_rollback(args) -> int:
    return _control_call(
        args, lambda client: client.post_json("/fleet/rollback", {}))


def add_fleet_parser(sub) -> None:
    """Register the ``fleet`` subcommand tree on a subparsers object."""
    fleet = sub.add_parser(
        "fleet", help="sharded multi-worker serving with hot-swap "
                      "rollouts (see docs/serving.md)")
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    serve = fleet_sub.add_parser(
        "serve", help="serve a registry model across N worker processes")
    serve.add_argument("--registry", required=True, type=Path,
                       help="model-registry root directory")
    serve.add_argument("--model", required=True,
                       help="published model name to serve")
    serve.add_argument("--version", default="latest",
                       help="registry version workers load "
                            "(default: latest)")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker subprocesses to spawn (default: 2)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8640)
    serve.add_argument("--retries", type=int, default=1,
                       help="ring siblings to try when a worker is "
                            "unreachable (default: 1)")
    serve.add_argument("--max-batch-size", type=int, default=64)
    serve.add_argument("--max-wait-ms", type=float, default=2.0)
    serve.add_argument("--cache-size", type=int, default=1024)
    serve.add_argument("--max-inflight", type=int, default=256)
    serve.add_argument("--tick-every", type=int, default=64,
                       help="worker telemetry-window tick cadence "
                            "(default: 64)")
    serve.add_argument("--mirror-fraction", type=float, default=1.0,
                       help="fraction of estimate traffic mirrored to a "
                            "canary candidate (default: 1.0)")
    serve.add_argument("--min-feedback", type=int, default=32,
                       help="q-error observations per deployment before "
                            "the rollout gate decides (default: 32)")
    serve.add_argument("--max-qerror-ratio", type=float, default=1.25,
                       help="candidate p95 q-error bound, as a multiple "
                            "of the baseline's (default: 1.25)")
    serve.add_argument("--max-latency-burn", type=float, default=2.0,
                       help="candidate latency SLO burn-rate bound "
                            "(default: 2.0)")
    serve.set_defaults(func=_cmd_fleet_serve)

    for name, handler, description in (
            ("status", _cmd_fleet_status,
             "print a running fleet's /fleet/status document"),
            ("rollout", _cmd_fleet_rollout,
             "start a canary rollout of a published version"),
            ("promote", _cmd_fleet_promote,
             "force-promote the active canary"),
            ("rollback", _cmd_fleet_rollback,
             "force-roll-back the active canary")):
        command = fleet_sub.add_parser(name, help=description)
        command.add_argument("--url", default="http://127.0.0.1:8640",
                             help="router base URL "
                                  "(default: http://127.0.0.1:8640)")
        command.add_argument("--timeout", type=float, default=30.0,
                             help="control-call timeout in seconds "
                                  "(default: 30)")
        if name == "rollout":
            command.add_argument("--version", default="latest",
                                 help="published version to canary "
                                      "(default: latest)")
        command.set_defaults(func=handler)


def build_parser() -> argparse.ArgumentParser:
    """Standalone parser (``python -m repro.fleet.cli``); tests use it."""
    parser = argparse.ArgumentParser(prog="repro")
    sub = parser.add_subparsers(dest="command", required=True)
    add_fleet_parser(sub)
    return parser
