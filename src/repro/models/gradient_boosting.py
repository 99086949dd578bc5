"""Gradient boosting with regression-tree weak learners (Section 2.2.2).

Implements the paper's Equation 5: the estimator sums ``P`` weak
predictors (here: histogram-based regression trees, each weighted by the
learning rate) plus a constant ``c`` (the target mean).  Squared loss on
the log-cardinality target makes each tree fit the current residuals.

Defaults mirror a lightly tuned lightGBM setup at the reproduction's
scale; the experiment harness exposes the knobs the paper tuned.
"""

from __future__ import annotations

import numpy as np

from repro import config, obs
from repro.models.base import Regressor, check_matrix
from repro.models.compiled_forest import CompiledForest
from repro.models.tree import BinMapper, HistogramLayout, RegressionTree

__all__ = ["GradientBoostingRegressor"]


class GradientBoostingRegressor(Regressor):
    """Gradient-boosted regression trees on binned features."""

    def __init__(self, n_estimators: int = 120, learning_rate: float = 0.1,
                 max_depth: int = 6, min_samples_leaf: int = 20,
                 max_bins: int = 64, subsample: float = 1.0,
                 colsample: float = 1.0,
                 early_stopping_rounds: int | None = 15,
                 validation_fraction: float = 0.1,
                 random_state: int = config.DEFAULT_SEED) -> None:
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0, 1], got {learning_rate}")
        if max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {max_depth}")
        if min_samples_leaf < 1:
            # A leaf of zero rows makes a 0/0 gain; NaN would win every
            # split search and every tree would stay a single leaf.
            raise ValueError(
                f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        if not 0.0 < subsample <= 1.0:
            raise ValueError(f"subsample must be in (0, 1], got {subsample}")
        if not 0.0 < validation_fraction < 1.0:
            raise ValueError(
                f"validation_fraction must be in (0, 1), got {validation_fraction}"
            )
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_bins = max_bins
        self.subsample = subsample
        self.colsample = colsample
        self.early_stopping_rounds = early_stopping_rounds
        self.validation_fraction = validation_fraction
        self.random_state = random_state
        self._trees: list[RegressionTree] = []
        self._mapper: BinMapper | None = None
        self._base: float = 0.0
        self._fitted = False
        self._compiled: CompiledForest | None = None

    @property
    def trees(self) -> list[RegressionTree]:
        """The trained weak learners."""
        return list(self._trees)

    @property
    def compiled(self) -> CompiledForest | None:
        """The packed forest :meth:`predict` runs, or ``None`` before fit.

        Packed once at the end of :meth:`fit` and in :meth:`from_state`;
        a refit packs a new one.
        """
        return self._compiled

    def _pack(self) -> None:
        """Pack the fitted trees into the :class:`CompiledForest`."""
        with obs.span("model.gb.compile", n_trees=len(self._trees)):
            self._compiled = CompiledForest(self._trees, self._base,
                                            self.learning_rate)

    @obs.trace("model.fit", model="GradientBoostingRegressor")
    def fit(self, features: np.ndarray, targets: np.ndarray
            ) -> "GradientBoostingRegressor":
        X, y = check_matrix(features, targets)
        # A refit that fails part-way leaves the model unfitted, never
        # predicting from a forest that no longer matches its trees.
        self._fitted = False
        self._compiled = None
        rng = np.random.default_rng(self.random_state)
        with obs.span("model.gb.bin", max_bins=self.max_bins):
            self._mapper = BinMapper(self.max_bins).fit(X)
            codes = self._mapper.transform(X)
            layout = HistogramLayout(codes, self._mapper)

        use_early_stop = (self.early_stopping_rounds is not None
                          and X.shape[0] >= 50)
        if use_early_stop:
            permutation = rng.permutation(X.shape[0])
            n_val = max(int(X.shape[0] * self.validation_fraction), 10)
            val_idx = permutation[:n_val]
            train_idx = permutation[n_val:]
        else:
            train_idx = np.arange(X.shape[0])
            val_idx = np.empty(0, dtype=np.int64)

        self._base = float(y[train_idx].mean())
        self._trees = []
        prediction = np.full(X.shape[0], self._base)
        best_val_loss = np.inf
        best_n_trees = 0
        rounds_since_best = 0

        with obs.span("model.gb.boost",
                      n_estimators=self.n_estimators) as boost:
            for _ in range(self.n_estimators):
                residuals = y - prediction
                if self.subsample < 1.0:
                    take = rng.random(train_idx.size) < self.subsample
                    rows = train_idx[take] if take.any() else train_idx
                else:
                    rows = train_idx
                tree = layout.grow(
                    residuals, rows=rows, max_depth=self.max_depth,
                    min_samples_leaf=self.min_samples_leaf,
                    colsample=self.colsample, rng=rng,
                )
                self._trees.append(tree)
                prediction += self.learning_rate * tree.predict_binned(codes)

                if use_early_stop:
                    val_loss = float(
                        np.mean((y[val_idx] - prediction[val_idx]) ** 2)
                    )
                    if val_loss < best_val_loss - 1e-12:
                        best_val_loss = val_loss
                        best_n_trees = len(self._trees)
                        rounds_since_best = 0
                    else:
                        rounds_since_best += 1
                        if rounds_since_best >= self.early_stopping_rounds:
                            break
            if boost is not None:
                boost.set_attribute("trees_grown", len(self._trees))

        if use_early_stop and best_n_trees:
            self._trees = self._trees[:best_n_trees]
        self._pack()
        self._fitted = True
        return self

    @obs.trace("model.predict", model="GradientBoostingRegressor")
    def predict(self, features: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("model must be fitted before predicting")
        X, _ = check_matrix(features)
        return self._compiled.predict(X)

    def memory_bytes(self) -> int:
        """Footprint of the trained trees (thresholds live in the trees)."""
        return sum(tree.memory_bytes() for tree in self._trees) + 8

    # ------------------------------------------------------------------
    # Persistence (see repro.persistence)
    # ------------------------------------------------------------------

    _TREE_FIELDS = ("feature", "threshold", "split_bin", "left", "right",
                    "value")

    def state_dict(self) -> dict:
        """Serializable state: JSON-safe ``config`` + numpy ``arrays``.

        Prediction only needs the trees (raw thresholds live inside
        them), so the bin mapper is not persisted; a loaded model can
        predict but not resume training.
        """
        if not self._fitted:
            raise RuntimeError("cannot serialise an unfitted model")
        arrays = {}
        for i, tree in enumerate(self._trees):
            for field in self._TREE_FIELDS:
                arrays[f"tree{i}/{field}"] = getattr(tree, field)
        config = {
            "kind": "gradient_boosting",
            "n_trees": len(self._trees),
            "base": self._base,
            "learning_rate": self.learning_rate,
        }
        return {"config": config, "arrays": arrays}

    @classmethod
    def from_state(cls, state: dict) -> "GradientBoostingRegressor":
        """Rebuild a predict-only model from :meth:`state_dict` output."""
        config = state["config"]
        if config.get("kind") != "gradient_boosting":
            raise ValueError(f"not a gradient-boosting state: {config}")
        model = cls(learning_rate=config["learning_rate"])
        arrays = state["arrays"]
        model._trees = [
            RegressionTree(**{field: np.asarray(arrays[f"tree{i}/{field}"])
                              for field in cls._TREE_FIELDS})
            for i in range(config["n_trees"])
        ]
        model._base = float(config["base"])
        model._pack()
        model._fitted = True
        return model
