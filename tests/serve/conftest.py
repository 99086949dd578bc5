"""Shared fixtures for the serving-layer tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.estimators import LearnedEstimator
from repro.featurize import ConjunctiveEncoding
from repro.models import GradientBoostingRegressor


@pytest.fixture(scope="session")
def serve_estimator(small_forest, conjunctive_workload):
    """A small fitted GB estimator the serving tests share.

    Gradient boosting predicts row-by-row (a tree walk plus scalar
    adds), so batch estimates are bitwise-identical to sequential ones —
    the property the batcher stress test asserts.
    """
    items = list(conjunctive_workload)[:200]
    return LearnedEstimator(
        ConjunctiveEncoding(small_forest, max_partitions=8),
        GradientBoostingRegressor(n_estimators=10),
    ).fit([item.query for item in items],
          np.asarray([item.cardinality for item in items], dtype=float))


def stepping_clock(step_ns: int = 1_000_000):
    """A clock_ns advancing a fixed step per call — latencies become a
    pure function of the request sequence, not of wall time."""
    state = {"now": 0}

    def clock() -> int:
        state["now"] += step_ns
        return state["now"]

    return clock
