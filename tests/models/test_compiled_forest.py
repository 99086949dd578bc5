"""CompiledForest: the packed forest must be an exact stand-in.

``CompiledForest.predict`` re-implements the per-tree loop
(``base + lr·t₀(x) + lr·t₁(x) + …``) with a level-synchronous batch
traversal over contiguous node tensors.  Gradient boosting packs its
forest at the end of ``fit`` (and on load) and always predicts through
it, so the loop lives on only here, as the reference.  The contract is
bitwise equality with the loop — same accumulation order, same floats
— plus the structural invariants the packing relies on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.compiled_forest import CompiledForest
from repro.models.gradient_boosting import GradientBoostingRegressor


def fitted_model(n_rows=400, n_features=6, n_estimators=12, seed=7,
                 **kwargs):
    rng = np.random.default_rng(seed)
    X = rng.random((n_rows, n_features))
    y = X @ rng.random(n_features) + 0.1 * rng.standard_normal(n_rows)
    model = GradientBoostingRegressor(n_estimators=n_estimators,
                                      random_state=seed, **kwargs)
    return model.fit(X, y), X


def legacy_predict(model, X):
    prediction = np.full(X.shape[0], model._base)
    for tree in model.trees:
        prediction += model.learning_rate * tree.predict(X)
    return prediction


class TestBitwiseEquivalence:
    def test_compiled_matches_legacy_loop_exactly(self):
        model, X = fitted_model()
        forest = model.compiled
        assert isinstance(forest, CompiledForest)
        np.testing.assert_array_equal(forest.predict(X),
                                      legacy_predict(model, X))

    def test_model_predict_delegates_when_compiled(self):
        model, X = fitted_model(seed=11)
        np.testing.assert_array_equal(model.predict(X),
                                      model.compiled.predict(X))
        np.testing.assert_array_equal(model.predict(X),
                                      legacy_predict(model, X))

    def test_single_row_and_empty_batch(self):
        model, X = fitted_model(seed=5)
        forest = model.compiled
        np.testing.assert_array_equal(forest.predict(X[:1]),
                                      legacy_predict(model, X[:1]))
        assert forest.predict(X[:0]).shape == (0,)

    def test_depth_one_stumps(self):
        model, X = fitted_model(seed=3, max_depth=1, n_estimators=5)
        forest = model.compiled
        assert forest.max_depth <= 1
        np.testing.assert_array_equal(forest.predict(X),
                                      legacy_predict(model, X))

    def test_out_of_range_features_follow_legacy_branches(self):
        model, X = fitted_model(seed=13)
        forest = model.compiled
        extremes = np.vstack([X.min(axis=0) - 10.0, X.max(axis=0) + 10.0])
        np.testing.assert_array_equal(forest.predict(extremes),
                                      legacy_predict(model, extremes))


class TestStructure:
    def test_shapes_and_counters(self):
        model, _ = fitted_model()
        forest = model.compiled
        assert forest.n_trees == len(model.trees)
        assert forest.max_nodes == max(t.node_count for t in model.trees)
        assert forest.base == model._base
        assert forest.learning_rate == model.learning_rate
        assert forest.memory_bytes() > 0

    def test_compile_is_idempotent(self):
        # Packing happens once per fit; predicting never repacks.
        model, X = fitted_model(seed=2)
        first = model.compiled
        model.predict(X)
        assert model.compiled is first

    def test_refit_invalidates_compiled_forest(self):
        model, X = fitted_model(seed=4)
        first = model.compiled
        rng = np.random.default_rng(8)
        model.fit(X, rng.random(X.shape[0]))
        assert model.compiled is not first
        np.testing.assert_array_equal(model.predict(X),
                                      legacy_predict(model, X))

    def test_unfitted_model_has_no_forest(self):
        assert GradientBoostingRegressor().compiled is None

    def test_loaded_model_predicts_through_its_forest(self):
        model, X = fitted_model(seed=9)
        loaded = GradientBoostingRegressor.from_state(model.state_dict())
        assert isinstance(loaded.compiled, CompiledForest)
        np.testing.assert_array_equal(loaded.predict(X),
                                      legacy_predict(model, X))

    def test_empty_forest_rejected(self):
        with pytest.raises(ValueError, match="empty forest"):
            CompiledForest([], base=0.0, learning_rate=0.1)

    def test_rejects_non_matrix_input(self):
        model, X = fitted_model(seed=6)
        forest = model.compiled
        with pytest.raises(ValueError, match="2-d"):
            forest.predict(X[0])
