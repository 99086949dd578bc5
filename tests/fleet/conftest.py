"""Shared fixtures for the fleet tests.

Fleets under test are built from :class:`LocalWorker` handles — the
same HTTP surface as subprocess workers, no interpreter boundary — so
routing, failover, and rollout behaviour runs fast and deterministic.
``TestProcessWorker`` in ``test_workers.py`` starts real
:class:`ProcessWorker` subprocesses and drives their start and stop
paths end-to-end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.estimators import LearnedEstimator
from repro.featurize import ConjunctiveEncoding
from repro.fleet import FleetRouter, LocalWorker, WorkerSupervisor
from repro.models import GradientBoostingRegressor
from repro.serve import EstimationService, ModelRegistry


class ScaledEstimator:
    """Wraps an estimator, scaling every estimate by a constant factor.

    ``factor=1.0`` is accuracy-neutral (a healthy canary candidate);
    a large factor inflates every q-error by that factor (a degraded
    candidate the rollout gate must reject).
    """

    def __init__(self, base, factor: float = 1.0,
                 name: str = "scaled") -> None:
        self.featurizer = base.featurizer
        self._base = base
        self._factor = factor
        self.name = name

    def estimate_features(self, features):
        return self._base.estimate_features(features) * self._factor


@pytest.fixture(scope="session")
def fleet_estimator(small_forest, conjunctive_workload):
    """A small fitted GB estimator the fleet tests share."""
    items = list(conjunctive_workload)[:200]
    return LearnedEstimator(
        ConjunctiveEncoding(small_forest, max_partitions=8),
        GradientBoostingRegressor(n_estimators=10),
    ).fit([item.query for item in items],
          np.asarray([item.cardinality for item in items], dtype=float))


@pytest.fixture(scope="session")
def fleet_workload(conjunctive_workload):
    """(sql, true_cardinality) pairs for traffic and feedback."""
    items = list(conjunctive_workload)[:48]
    return [(item.query.to_sql(), max(float(item.cardinality), 1.0))
            for item in items]


@pytest.fixture(scope="session")
def fleet_sqls(fleet_workload):
    """Just the SQL strings of the shared fleet workload."""
    return [sql for sql, _ in fleet_workload]


@pytest.fixture()
def fleet_registry(tmp_path, fleet_estimator):
    """A registry with two published versions of model ``m``."""
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(fleet_estimator, "m")
    registry.publish(fleet_estimator, "m")
    return registry


def make_service(estimator, factor: float = 1.0,
                 version: str = "base") -> EstimationService:
    """A small estimation service over a (possibly scaled) estimator."""
    wrapped = (estimator if factor == 1.0
               else ScaledEstimator(estimator, factor=factor,
                                    name=f"scaled-{factor:g}"))
    return EstimationService(wrapped, cache_size=0, max_inflight=64,
                             model_version=version, tick_every=0)


@pytest.fixture()
def local_fleet(fleet_estimator):
    """Factory building LocalWorker fleets; everything stops at teardown.

    Returns ``build(workers=2, factor=1.0, version="base", retries=1)``
    → ``(supervisor, router)``.  The supervisor's monitor thread is NOT
    started (tests that need restarts call ``supervisor.start()``).
    """
    created: list[tuple[WorkerSupervisor, FleetRouter]] = []

    def build(workers: int = 2, factor: float = 1.0,
              version: str = "base", retries: int = 1,
              poll_interval: float = 0.05, backoff_base: float = 0.01):
        def factory(worker_id: str) -> LocalWorker:
            return LocalWorker(
                worker_id,
                make_service(fleet_estimator, factor=factor,
                             version=version)).start()

        supervisor = WorkerSupervisor(factory,
                                      poll_interval=poll_interval,
                                      backoff_base=backoff_base,
                                      backoff_max=0.1)
        supervisor.spawn(workers)
        router = FleetRouter(supervisor.pool, supervisor=supervisor,
                             retries=retries)
        created.append((supervisor, router))
        return supervisor, router

    yield build
    for supervisor, _ in created:
        supervisor.stop(drain=False)
