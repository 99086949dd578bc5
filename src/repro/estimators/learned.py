"""Learned estimators: QFT + ML model combinations.

:class:`LearnedEstimator` pairs any vector featurizer (a fitted QFT or a
join composition of QFTs) with any :class:`~repro.models.base.Regressor`;
targets are handled in log space.  :class:`GlobalLearnedEstimator` is the
convenience wrapper for the global-model setup (table bitmap + all-table
QFT segments).  :class:`MSCNEstimator` adapts the set-based MSCN model to
the estimator interface.
"""

from __future__ import annotations

from typing import Iterable, Protocol, Sequence

import numpy as np

from repro import obs
from repro.data.schema import Schema
from repro.estimators.base import CardinalityEstimator
from repro.featurize.joins import FeaturizerFactory, GlobalJoinFeaturizer
from repro.models.base import LogSpaceRegressor, Regressor
from repro.models.mscn import MSCNModel
from repro.sql.ast import Query

__all__ = ["LearnedEstimator", "GlobalLearnedEstimator", "MSCNEstimator",
           "VectorFeaturizer"]


class VectorFeaturizer(Protocol):
    """Anything that maps queries to fixed-length vectors."""

    @property
    def feature_length(self) -> int:
        """Dimension of the produced feature vectors."""
        ...

    def featurize(self, query) -> np.ndarray:
        """Encode one query into a feature vector."""
        ...

    def featurize_batch(self, queries) -> np.ndarray:
        """Encode many queries into a ``(n, feature_length)`` matrix."""
        ...


class LearnedEstimator(CardinalityEstimator):
    """A fitted QFT plus a regression model on log cardinalities."""

    def __init__(self, featurizer: VectorFeaturizer, model: Regressor,
                 name: str | None = None) -> None:
        self._featurizer = featurizer
        self._model = LogSpaceRegressor(model)
        self._fitted = False
        self.name = name or f"{type(model).__name__}+{getattr(featurizer, 'name', 'qft')}"

    @property
    def featurizer(self) -> VectorFeaturizer:
        """The featurization layer."""
        return self._featurizer

    @property
    def model(self) -> LogSpaceRegressor:
        """The log-space-wrapped model."""
        return self._model

    def fit(self, queries: Sequence[Query], cardinalities: np.ndarray
            ) -> "LearnedEstimator":
        """Train on queries with known true cardinalities.

        Feature matrices come from the featurizer's batch pipeline (one
        compile pass plus a vectorized encode), so training-set
        featurization cost no longer scales with per-query python
        dispatch.
        """
        with obs.span("estimator.fit", estimator=self.name,
                      n_queries=len(queries)):
            features = self._featurizer.featurize_batch(queries)
            self._model.fit(features,
                            np.asarray(cardinalities, dtype=np.float64))
        self._fitted = True
        return self

    def estimate(self, query: Query) -> float:
        return float(self.estimate_batch([query])[0])

    def estimate_batch(self, queries: Sequence[Query] | Iterable[Query]
                       ) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("estimator must be fitted before estimating")
        batch = list(queries)
        with obs.span("estimator.estimate", estimator=self.name,
                      n_queries=len(batch)):
            features = self._featurizer.featurize_batch(batch)
            return self._model.predict(features)

    def estimate_features(self, features: np.ndarray) -> np.ndarray:
        """Predict cardinalities from an already-encoded feature matrix.

        The serving pipeline encodes whole batches through statement
        plans and feeds the matrix straight here, skipping the
        per-query featurize pass :meth:`estimate_batch` performs.  The
        matrix must come from this estimator's own featurizer (same
        feature space); output is bitwise-identical to
        ``estimate_batch`` on the queries the matrix encodes.
        """
        if not self._fitted:
            raise RuntimeError("estimator must be fitted before estimating")
        return self._model.predict(features)

    def memory_bytes(self) -> int:
        """Model footprint (Section 5.7)."""
        return self._model.memory_bytes()


class GlobalLearnedEstimator(LearnedEstimator):
    """Global model: one estimator for all sub-schemata of a schema."""

    def __init__(self, schema: Schema, factory: FeaturizerFactory,
                 model: Regressor, name: str | None = None) -> None:
        featurizer = GlobalJoinFeaturizer(schema, factory)
        super().__init__(featurizer, model,
                         name=name or f"global-{type(model).__name__}")


class MSCNEstimator(CardinalityEstimator):
    """Adapter exposing :class:`~repro.models.mscn.MSCNModel` as an estimator."""

    def __init__(self, model: MSCNModel, name: str = "mscn") -> None:
        self._model = model
        # Adopt the state of a pre-trained model so reconstructed
        # estimators stay usable without refitting.
        self._fitted = bool(getattr(model, "_fitted", False))
        self.name = name

    def fit(self, queries: Sequence[Query], cardinalities: np.ndarray
            ) -> "MSCNEstimator":
        """Train the underlying MSCN."""
        with obs.span("estimator.fit", estimator=self.name,
                      n_queries=len(queries)):
            self._model.fit(list(queries),
                            np.asarray(cardinalities, dtype=np.float64))
        self._fitted = True
        return self

    def estimate(self, query: Query) -> float:
        if not self._fitted:
            raise RuntimeError("estimator must be fitted before estimating")
        return float(self._model.predict([query])[0])

    def estimate_batch(self, queries) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("estimator must be fitted before estimating")
        batch = list(queries)
        with obs.span("estimator.estimate", estimator=self.name,
                      n_queries=len(batch)):
            return self._model.predict(batch)

    def memory_bytes(self) -> int:
        """Model footprint (Section 5.7)."""
        return self._model.memory_bytes()
