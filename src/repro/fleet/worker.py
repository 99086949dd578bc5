"""Fleet worker process: one estimation service, one ready line.

``python -m repro.fleet.worker --registry R --model M --worker-id w0``
loads the named model from the registry, boots a full
:class:`~repro.serve.server.EstimationServer` on an ephemeral port, and
prints one JSON line to stdout, which is all it ever writes there::

    {"event": "ready", "worker_id": ..., "port": ..., "url": ...,
     "model": ..., "version": ..., "model_version": ..., "pid": ...}

It reads no commands: every request, warm-up included, arrives over
the HTTP API, like any client's.  It stops one way, gracefully (the
listener stops, in-flight requests complete, the batcher drains), and
then exits 0, on any of three cues: EOF on stdin (the supervisor
closed the pipe, or is gone, so the worker never lingers orphaned),
``SIGTERM`` or ``SIGINT`` (so a whole process group stops with one
signal).  A hard stop is the supervisor's ``SIGKILL``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from repro.serve import EstimationServer, EstimationService, ModelRegistry

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """Build the worker's argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro.fleet.worker",
        description="One fleet worker: an estimation service that prints "
                    "one ready line and serves until stdin closes or "
                    "SIGTERM/SIGINT arrives.")
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
    try:
        # Both signals raise KeyboardInterrupt out of the wait below.
        # They are bound before the ready line goes out, so a signal
        # sent as soon as the supervisor has read it still drains.
        signal.signal(signal.SIGTERM, signal.default_int_handler)
        signal.signal(signal.SIGINT, signal.default_int_handler)
        print(json.dumps({
            "event": "ready",
            "worker_id": args.worker_id,
            "port": server.port,
            "url": server.url,
            "model": resolved.name,
            "version": resolved.version,
            "model_version": resolved.label(),
            "pid": os.getpid(),
        }, sort_keys=True), flush=True)
        sys.stdin.buffer.read()  # returns at EOF
    except KeyboardInterrupt:
        pass  # SIGTERM/SIGINT: drain exactly as on EOF
    server.stop()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
