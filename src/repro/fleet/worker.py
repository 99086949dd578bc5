"""Fleet worker process: one estimation service + a JSON control channel.

``python -m repro.fleet.worker --registry R --model M --worker-id w0``
loads the named model from the registry, boots a full
:class:`~repro.serve.server.EstimationServer` on an ephemeral port, and
then speaks a line-oriented JSON control protocol with its supervisor:

* stdout (worker → supervisor), one JSON object per line::

      {"event": "ready", "worker_id": ..., "port": ..., "url": ...,
       "model": ..., "version": ..., "model_version": ..., "pid": ...}
      {"event": "warmed", "count": N}
      {"event": "drained"} / {"event": "terminated"}
      {"event": "error", "detail": "..."}

* stdin (supervisor → worker), one JSON object per line::

      {"cmd": "warm", "sql": ["...", ...]}   pre-touch caches and plans
      {"cmd": "ping"}                        liveness echo ({"event": "pong"})
      {"cmd": "drain"}                       graceful stop, then exit 0
      {"cmd": "terminate"}                   immediate stop, then exit 0

EOF on stdin means the supervisor is gone; the worker drains and exits
rather than lingering orphaned.  ``SIGTERM``/``SIGINT`` likewise
trigger the graceful drain, so a whole process group can be stopped
with one signal.  Estimate/feedback traffic never rides the control
channel — the router talks HTTP to the worker's port like any client.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from repro.serve import EstimationServer, EstimationService, ModelRegistry

__all__ = ["build_parser", "main"]


class _SignalShutdown(Exception):
    """Raised out of the control loop by the SIGTERM/SIGINT handlers."""


def _emit(payload: dict) -> None:
    """Write one control event line; flush so the supervisor sees it now."""
    print(json.dumps(payload, sort_keys=True), flush=True)


def build_parser() -> argparse.ArgumentParser:
    """Build the worker's argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro.fleet.worker",
        description="One fleet worker: an estimation service under a "
                    "JSON control channel.")
    parser.add_argument("--registry", required=True,
                        help="model-registry root directory")
    parser.add_argument("--model", required=True,
                        help="published model name to serve")
    parser.add_argument("--version", default="latest",
                        help="registry version to serve (default: latest)")
    parser.add_argument("--worker-id", required=True,
                        help="stable worker id assigned by the supervisor")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--cache-size", type=int, default=1024)
    parser.add_argument("--max-inflight", type=int, default=256)
    parser.add_argument("--tick-every", type=int, default=64)
    return parser


def _control_loop(service: EstimationService, stdin) -> str:
    """Serve control commands until drain/terminate/EOF; returns how."""
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            command = json.loads(line)
        except json.JSONDecodeError as exc:
            _emit({"event": "error", "detail": f"bad control line: {exc}"})
            continue
        cmd = command.get("cmd") if isinstance(command, dict) else None
        if cmd == "ping":
            _emit({"event": "pong"})
        elif cmd == "warm":
            sqls = command.get("sql") or []
            try:
                if sqls:
                    service.estimate_many_sql([str(s) for s in sqls])
                _emit({"event": "warmed", "count": len(sqls)})
            except (ValueError, KeyError, RuntimeError) as exc:
                _emit({"event": "error", "detail": f"warm failed: {exc}"})
        elif cmd == "drain":
            return "drain"
        elif cmd == "terminate":
            return "terminate"
        else:
            _emit({"event": "error", "detail": f"unknown cmd {cmd!r}"})
    return "drain"  # EOF: supervisor vanished, drain and go


def main(argv: list[str] | None = None) -> int:
    """Worker entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    registry = ModelRegistry(args.registry)
    resolved = registry.resolve(args.model, args.version)
    estimator = registry.load(args.model, args.version)
    service = EstimationService(estimator,
                                cache_size=args.cache_size,
                                max_inflight=args.max_inflight,
                                model_version=resolved.label(),
                                tick_every=args.tick_every)
    server = EstimationServer(service, host=args.host, port=0)
    server.start()
    _emit({
        "event": "ready",
        "worker_id": args.worker_id,
        "port": server.port,
        "url": server.url,
        "model": resolved.name,
        "version": resolved.version,
        "model_version": resolved.label(),
        "pid": os.getpid(),
    })

    def _on_signal(signum, frame):
        raise _SignalShutdown()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    outcome = "drain"
    try:
        outcome = _control_loop(service, sys.stdin)
    except _SignalShutdown:
        outcome = "drain"
    server.stop(drain=outcome == "drain")
    _emit({"event": "drained" if outcome == "drain" else "terminated"})
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
