"""Sharded multi-process serving: router, workers, and rollouts.

``repro.fleet`` scales :mod:`repro.serve` horizontally and gives it a
deployment story.  One front-end **router** consistent-hashes request
fingerprints across N worker processes — each worker a full
:class:`~repro.serve.server.EstimationService` with its own
micro-batcher, caches, and serving pipeline — while a **supervisor** keeps
the worker pool alive (spawn, drain by closing a worker's stdin,
terminate by a kill, crash restarts with backoff; requests, warm-up
included, go over each worker's HTTP API) and a **rollout state
machine** drives zero-downtime hot-swaps: publish a candidate to the
:class:`~repro.serve.registry.ModelRegistry`, warm it in fresh
workers, mirror a fraction of live traffic, compare windowed q-error
and latency SLO burn between baseline and candidate, then auto-promote
(flip ``latest``, drain the old pool) or auto-rollback on an explicit
gate.

Layering: ``repro.fleet`` sits *above* ``repro.serve`` — it imports
the serve layer freely, and the lint layering pins in ``pyproject``
keep the serve layer (and everything below it) from importing back up.
"""

from repro.fleet.hashring import HashRing
from repro.fleet.rollout import RolloutError, RolloutGate, RolloutManager
from repro.fleet.router import FleetRouter, RouterServer
from repro.fleet.workers import (
    LocalWorker,
    ProcessWorker,
    WorkerError,
    WorkerPool,
    WorkerSupervisor,
)

__all__ = [
    "HashRing",
    "FleetRouter",
    "RouterServer",
    "RolloutError",
    "RolloutGate",
    "RolloutManager",
    "LocalWorker",
    "ProcessWorker",
    "WorkerError",
    "WorkerPool",
    "WorkerSupervisor",
]
