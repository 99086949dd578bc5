"""Tests for the gradient-boosting regressor."""

import numpy as np
import pytest

from repro.models import GradientBoostingRegressor


def make_regression(n=600, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 5))
    y = 3.0 * X[:, 0] + np.sin(3 * X[:, 1]) + 0.5 * X[:, 2] * X[:, 3]
    y += rng.normal(0, 0.05, n)
    return X, y


def test_fits_nonlinear_function():
    X, y = make_regression()
    model = GradientBoostingRegressor(n_estimators=80, max_depth=4,
                                      early_stopping_rounds=None)
    model.fit(X, y)
    residual = y - model.predict(X)
    assert residual.std() < 0.5 * y.std()


def test_generalises_to_held_out_data():
    X, y = make_regression(n=1200)
    model = GradientBoostingRegressor(n_estimators=100, max_depth=4)
    model.fit(X[:900], y[:900])
    test_residual = y[900:] - model.predict(X[900:])
    assert test_residual.std() < 0.6 * y[900:].std()


def test_more_trees_reduce_training_error():
    X, y = make_regression()
    small = GradientBoostingRegressor(n_estimators=5,
                                      early_stopping_rounds=None).fit(X, y)
    large = GradientBoostingRegressor(n_estimators=60,
                                      early_stopping_rounds=None).fit(X, y)
    err_small = np.mean((y - small.predict(X))**2)
    err_large = np.mean((y - large.predict(X))**2)
    assert err_large < err_small


def test_early_stopping_truncates_trees():
    X, y = make_regression(n=300)
    model = GradientBoostingRegressor(n_estimators=400,
                                      early_stopping_rounds=5)
    model.fit(X, y)
    assert len(model.trees) < 400


def test_deterministic_in_seed():
    X, y = make_regression()
    a = GradientBoostingRegressor(n_estimators=20, subsample=0.8,
                                  random_state=1).fit(X, y)
    b = GradientBoostingRegressor(n_estimators=20, subsample=0.8,
                                  random_state=1).fit(X, y)
    np.testing.assert_array_equal(a.predict(X), b.predict(X))


def test_subsample_and_colsample():
    X, y = make_regression()
    model = GradientBoostingRegressor(n_estimators=30, subsample=0.7,
                                      colsample=0.5)
    model.fit(X, y)
    assert np.isfinite(model.predict(X)).all()


def test_predict_before_fit_rejected():
    model = GradientBoostingRegressor()
    with pytest.raises(RuntimeError, match="fitted"):
        model.predict(np.ones((1, 3)))


def test_parameter_validation():
    with pytest.raises(ValueError):
        GradientBoostingRegressor(n_estimators=0)
    with pytest.raises(ValueError):
        GradientBoostingRegressor(learning_rate=0.0)
    with pytest.raises(ValueError):
        GradientBoostingRegressor(subsample=1.5)
    with pytest.raises(ValueError):
        GradientBoostingRegressor(validation_fraction=1.0)
    # A leaf may not be empty: with min_samples_leaf=0 a 0/0 gain would
    # leave every tree a single leaf.
    for min_samples_leaf in (0, -3):
        with pytest.raises(ValueError, match="min_samples_leaf"):
            GradientBoostingRegressor(min_samples_leaf=min_samples_leaf)
    with pytest.raises(ValueError, match="max_depth"):
        GradientBoostingRegressor(max_depth=-1)


def test_input_validation():
    model = GradientBoostingRegressor()
    with pytest.raises(ValueError, match="2-d"):
        model.fit(np.ones(5), np.ones(5))
    with pytest.raises(ValueError, match="length"):
        model.fit(np.ones((5, 2)), np.ones(4))
    with pytest.raises(ValueError, match="NaN"):
        model.fit(np.full((5, 2), np.nan), np.ones(5))


def test_memory_bytes_grows_with_trees():
    X, y = make_regression(n=300)
    small = GradientBoostingRegressor(n_estimators=5,
                                      early_stopping_rounds=None).fit(X, y)
    large = GradientBoostingRegressor(n_estimators=50,
                                      early_stopping_rounds=None).fit(X, y)
    assert large.memory_bytes() > small.memory_bytes() > 0


def test_tiny_training_set():
    """Early stopping is skipped below 50 samples; fitting still works."""
    X = np.asarray([[0.0], [1.0], [2.0], [3.0]])
    y = np.asarray([0.0, 1.0, 2.0, 3.0])
    model = GradientBoostingRegressor(n_estimators=5, min_samples_leaf=1)
    model.fit(X, y)
    assert np.isfinite(model.predict(X)).all()
