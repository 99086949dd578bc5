"""Query-feedback monitoring and model reconstruction (Section 5.5.2).

The paper's recommendation for data drift: "we simply recommend to
reconstruct models after data drift occurred.  For deciding when to
reconstruct, we recommend to follow Larson et al. [15], who propose to
base the decision on query feedback."

:class:`QueryFeedbackMonitor` implements that decision rule: it keeps a
sliding window of observed q-errors (estimate vs. the true cardinality
the executor later produced) and reports drift when a chosen quantile of
the window exceeds a threshold.  :class:`SelfTuningEstimator` wires the
monitor to any estimator plus a rebuild callback, so the model is
reconstructed automatically once feedback shows it has gone stale.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

import numpy as np

from repro.estimators.base import CardinalityEstimator
from repro.metrics import qerror
from repro.sql.ast import Query

__all__ = ["QueryFeedbackMonitor", "SelfTuningEstimator"]


class QueryFeedbackMonitor:
    """Sliding-window q-error monitor with a quantile trigger.

    Parameters
    ----------
    window:
        Number of most recent feedback observations considered.
    threshold:
        q-error level that counts as "model is stale".
    quantile:
        Fraction of the window compared against the threshold; the
        default 0.9 triggers when the 90th-percentile error in the
        window exceeds ``threshold``.
    min_observations:
        No decision before this many observations have arrived (avoids
        triggering on the first unlucky query).
    """

    def __init__(self, window: int = 200, threshold: float = 10.0,
                 quantile: float = 0.9, min_observations: int = 30) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if threshold < 1.0:
            raise ValueError(f"threshold must be >= 1 (a q-error), got {threshold}")
        if not 0.0 < quantile <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {quantile}")
        if min_observations < 1:
            raise ValueError("min_observations must be >= 1")
        self._window: deque[float] = deque(maxlen=window)
        self._threshold = threshold
        self._quantile = quantile
        self._min_observations = min(min_observations, window)
        self._total_observations = 0

    @property
    def observation_count(self) -> int:
        """Total feedback observations recorded (including evicted ones)."""
        return self._total_observations

    def record(self, true_cardinality: float, estimate: float) -> None:
        """Record one executed query's feedback.

        Production feedback may include empty results, which the strict
        q-error rejects; the monitor treats those as cardinality 1 (the
        paper's floor) rather than refusing the observation.
        """
        observed = float(qerror(max(float(true_cardinality), 1.0),
                                max(float(estimate), 1.0)))
        self._window.append(observed)
        self._total_observations += 1

    def current_quantile_error(self) -> float:
        """The monitored quantile of the current window (1.0 if empty)."""
        if not self._window:
            return 1.0
        return float(np.quantile(np.asarray(self._window), self._quantile))

    def drift_detected(self) -> bool:
        """True when enough feedback has arrived and errors are too high."""
        if len(self._window) < self._min_observations:
            return False
        return self.current_quantile_error() > self._threshold

    def reset(self) -> None:
        """Clear the window (called after a model rebuild)."""
        self._window.clear()


class SelfTuningEstimator(CardinalityEstimator):
    """An estimator that rebuilds itself when query feedback degrades.

    ``builder`` is a zero-argument callable returning a *fitted*
    estimator over the current data — typically a closure that re-labels
    a workload against the live table and retrains (featurization and
    training are cheap, Section 5.5.2; obtaining labels is the costly
    part and is the caller's policy decision).
    """

    def __init__(self, builder: Callable[[], CardinalityEstimator],
                 monitor: QueryFeedbackMonitor | None = None,
                 name: str = "self-tuning") -> None:
        self._builder = builder
        self._monitor = monitor if monitor is not None else QueryFeedbackMonitor()
        self._estimator = builder()
        self._rebuild_count = 0
        self.name = name

    @property
    def current_estimator(self) -> CardinalityEstimator:
        """The currently active underlying estimator."""
        return self._estimator

    @property
    def rebuild_count(self) -> int:
        """How many times the model has been reconstructed."""
        return self._rebuild_count

    @property
    def monitor(self) -> QueryFeedbackMonitor:
        """The feedback monitor."""
        return self._monitor

    def estimate(self, query: Query) -> float:
        return self._estimator.estimate(query)

    def estimate_batch(self, queries) -> np.ndarray:
        return self._estimator.estimate_batch(queries)

    def feedback(self, query: Query, true_cardinality: float) -> bool:
        """Report an executed query's true cardinality.

        Re-estimates the query, records the q-error, and rebuilds the
        model if the monitor detects drift.  Returns True iff a rebuild
        happened.
        """
        estimate = self._estimator.estimate(query)
        self._monitor.record(true_cardinality, estimate)
        if not self._monitor.drift_detected():
            return False
        self._estimator = self._builder()
        self._rebuild_count += 1
        self._monitor.reset()
        return True
