"""Tests for the histogram tree substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.tree import BinMapper, grow_tree


class TestBinMapper:
    def test_few_uniques_get_exact_bins(self):
        X = np.asarray([[1.0], [2.0], [5.0], [2.0]])
        mapper = BinMapper(max_bins=8).fit(X)
        codes = mapper.transform(X)
        assert codes[:, 0].tolist() == [0, 1, 2, 1]

    def test_thresholds_are_midpoints(self):
        X = np.asarray([[1.0], [3.0], [7.0]])
        mapper = BinMapper(max_bins=8).fit(X)
        np.testing.assert_allclose(mapper.thresholds(0), [2.0, 5.0])

    def test_constant_column_single_bin(self):
        X = np.full((5, 1), 3.0)
        mapper = BinMapper(max_bins=8).fit(X)
        assert mapper.thresholds(0).size == 0
        assert (mapper.transform(X) == 0).all()

    def test_many_uniques_capped(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(500, 1))
        mapper = BinMapper(max_bins=16).fit(X)
        codes = mapper.transform(X)
        assert codes.max() <= 15

    def test_invalid_max_bins(self):
        with pytest.raises(ValueError):
            BinMapper(max_bins=1)
        with pytest.raises(ValueError):
            BinMapper(max_bins=300)

    def test_fit_revalidates_mutated_max_bins(self):
        # transform() packs codes into uint8; a max_bins smuggled past
        # __init__ (deserialisation, attribute mutation) must fail
        # loudly at fit instead of wrapping codes silently.
        mapper = BinMapper(max_bins=8)
        mapper._max_bins = 256
        with pytest.raises(ValueError, match="uint8"):
            mapper.fit(np.ones((4, 1)))

    def test_transform_rejects_thresholds_beyond_uint8(self):
        # Thresholds can also arrive via persistence, bypassing fit();
        # 300 of them would make searchsorted codes wrap past 255.
        mapper = BinMapper(max_bins=8).fit(np.arange(20.0)[:, None])
        mapper._thresholds[0] = np.arange(300, dtype=np.float64)
        with pytest.raises(ValueError, match="uint8"):
            mapper.transform(np.full((2, 1), 299.5))

    def test_transform_checks_feature_count(self):
        mapper = BinMapper().fit(np.ones((3, 2)))
        with pytest.raises(ValueError, match="features"):
            mapper.transform(np.ones((3, 3)))

    @given(st.lists(st.floats(min_value=-100, max_value=100,
                              allow_nan=False), min_size=2, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_code_threshold_equivalence(self, values):
        """code(x) <= b  <=>  x < threshold[b], the invariant prediction
        relies on (binned and raw traversal must agree)."""
        X = np.asarray(values)[:, None]
        mapper = BinMapper(max_bins=8).fit(X)
        codes = mapper.transform(X)[:, 0]
        thresholds = mapper.thresholds(0)
        for b in range(thresholds.size):
            np.testing.assert_array_equal(codes <= b, X[:, 0] < thresholds[b])


class TestGrowTree:
    def make_data(self, n=400, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 1, size=(n, 3))
        y = np.where(X[:, 0] < 0.5, 1.0, 5.0) + rng.normal(0, 0.01, n)
        return X, y

    def test_learns_a_step_function(self):
        X, y = self.make_data()
        mapper = BinMapper(max_bins=32).fit(X)
        tree = grow_tree(mapper.transform(X), y, mapper, max_depth=3,
                         min_samples_leaf=5)
        pred = tree.predict(X)
        assert np.abs(pred - y).mean() < 0.2

    def test_binned_and_raw_prediction_agree(self):
        X, y = self.make_data()
        mapper = BinMapper(max_bins=32).fit(X)
        codes = mapper.transform(X)
        tree = grow_tree(codes, y, mapper, max_depth=4, min_samples_leaf=5)
        np.testing.assert_allclose(tree.predict(X), tree.predict_binned(codes))

    def test_respects_max_depth_zero(self):
        X, y = self.make_data()
        mapper = BinMapper().fit(X)
        tree = grow_tree(mapper.transform(X), y, mapper, max_depth=0)
        assert tree.node_count == 1
        np.testing.assert_allclose(tree.predict(X), y.mean(), rtol=1e-6)

    def test_min_samples_leaf_respected(self):
        X, y = self.make_data(n=50)
        mapper = BinMapper().fit(X)
        tree = grow_tree(mapper.transform(X), y, mapper, max_depth=10,
                         min_samples_leaf=25)
        # At most one split is possible with 50 rows and leaves >= 25.
        assert tree.node_count <= 3

    def test_pure_target_stays_single_leaf(self):
        X = np.random.default_rng(1).uniform(size=(100, 2))
        y = np.full(100, 7.0)
        mapper = BinMapper().fit(X)
        tree = grow_tree(mapper.transform(X), y, mapper)
        assert tree.node_count == 1

    def test_row_subset(self):
        X, y = self.make_data()
        mapper = BinMapper().fit(X)
        rows = np.arange(0, 100)
        tree = grow_tree(mapper.transform(X), y, mapper, rows=rows,
                         max_depth=3, min_samples_leaf=5)
        assert np.isfinite(tree.predict(X)).all()

    def test_empty_rows_rejected(self):
        X, y = self.make_data()
        mapper = BinMapper().fit(X)
        with pytest.raises(ValueError, match="zero rows"):
            grow_tree(mapper.transform(X), y, mapper,
                      rows=np.empty(0, dtype=np.int64))

    def test_colsample_validation(self):
        X, y = self.make_data()
        mapper = BinMapper().fit(X)
        with pytest.raises(ValueError, match="colsample"):
            grow_tree(mapper.transform(X), y, mapper, colsample=0.0)

    def test_leaf_size_and_depth_validation(self):
        X, y = self.make_data()
        mapper = BinMapper().fit(X)
        codes = mapper.transform(X)
        for min_samples_leaf in (0, -3):
            with pytest.raises(ValueError, match="min_samples_leaf"):
                grow_tree(codes, y, mapper, min_samples_leaf=min_samples_leaf)
        with pytest.raises(ValueError, match="max_depth"):
            grow_tree(codes, y, mapper, max_depth=-1)

    def test_codes_beyond_the_mappers_bins_rejected(self):
        X, y = self.make_data()
        mapper = BinMapper(max_bins=4).fit(X)
        codes = mapper.transform(X)
        codes[0, 1] = 7  # feature 1 has 4 bins
        with pytest.raises(ValueError, match="thresholds"):
            grow_tree(codes, y, mapper)

    def test_memory_bytes_positive(self):
        X, y = self.make_data()
        mapper = BinMapper().fit(X)
        tree = grow_tree(mapper.transform(X), y, mapper, max_depth=3)
        assert tree.memory_bytes() > 0
