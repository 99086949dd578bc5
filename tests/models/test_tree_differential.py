"""The compact-histogram trainer grows exactly the wide oracle's trees.

:mod:`repro.models.tree` builds each node's histograms over only the
bins each feature has (:class:`~repro.models.tree.HistogramLayout`);
``tests/models/wide_tree.py`` scans ``max_bins``-wide histograms of
every feature, constant ones included.  Trees and fitted forests must be
bitwise the same, which rests on four rules pinned one by one below:
equal per-feature cumulative sums, padded cells never valid, ties to the
smallest feature and then bin, and the ``colsample`` mask drawn over all
features.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.featurize import BY_PAPER_LABEL
from repro.models import GradientBoostingRegressor, gradient_boosting
from repro.models.tree import BinMapper, HistogramLayout, grow_tree

from tests.models import wide_tree

FIELDS = ("feature", "threshold", "split_bin", "left", "right", "value")


def assert_same_tree(tree, expected) -> None:
    for field in FIELDS:
        got, want = getattr(tree, field), getattr(expected, field)
        assert got.dtype == want.dtype and got.shape == want.shape, field
        assert got.tobytes() == want.tobytes(), field


@st.composite
def tree_inputs(draw):
    """Binned features of 1 to ``max_bins`` bins (constant, skewed,
    duplicated and continuous ones), gradients, a row subset and the
    growth parameters."""
    max_bins = draw(st.integers(2, 64))
    n_rows = draw(st.integers(1, 160))
    bins = draw(st.lists(st.integers(1, max_bins), min_size=1, max_size=10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for count in bins:
        if draw(st.booleans()):
            # Skewed like an encoding's 0 / ½ / 1 entries, mostly the top.
            p = rng.dirichlet(np.full(count, draw(st.sampled_from([0.2, 5.0]))))
            columns.append(rng.choice(count, size=n_rows, p=p).astype(float))
        elif draw(st.booleans()):
            columns.append(rng.integers(0, count, n_rows).astype(float))
        else:
            columns.append(rng.normal(size=n_rows))  # up to max_bins bins
    for target, source in draw(st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=3)):
        if target < len(columns) and source < len(columns):
            columns[target] = columns[source]  # equal gains: ties
    X = np.column_stack(columns)
    mapper = BinMapper(max_bins).fit(X)
    codes = mapper.transform(X)
    if draw(st.booleans()):
        gradients = rng.integers(-3, 4, n_rows).astype(float)  # many ties
    else:
        gradients = rng.normal(scale=draw(st.sampled_from([1e-3, 1.0, 1e3])),
                               size=n_rows)
    rows = None
    subset = draw(st.sampled_from(["all", "sorted", "shuffled"]))
    if subset != "all":
        rows = rng.permutation(n_rows)[:rng.integers(1, n_rows + 1)]
        if subset == "sorted":
            rows = np.sort(rows)
    params = {
        "max_depth": draw(st.integers(0, 8)),
        "min_samples_leaf": draw(st.integers(1, 30)),
        "min_gain": draw(st.sampled_from([1e-10, 0.0])),
        "colsample": draw(st.one_of(st.just(1.0), st.floats(0.05, 0.95))),
    }
    return codes, gradients, mapper, rows, params, draw(st.integers(0, 2**32 - 1))


@given(tree_inputs())
@settings(max_examples=300, deadline=None)
def test_grows_the_oracles_tree(inputs):
    codes, gradients, mapper, rows, params, seed = inputs
    shipped_rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    tree = grow_tree(codes, gradients, mapper, rows=rows, rng=shipped_rng,
                     **params)
    expected = wide_tree.grow_tree(codes, gradients, mapper, rows=rows,
                                   rng=oracle_rng, **params)
    assert_same_tree(tree, expected)
    assert shipped_rng.bit_generator.state == oracle_rng.bit_generator.state
    for node in np.flatnonzero(tree.feature >= 0):
        # Never a split on a padded cell or a feature's last bin.
        assert tree.split_bin[node] < mapper.thresholds(tree.feature[node]).size


@given(tree_inputs())
@settings(max_examples=100, deadline=None)
def test_cumulative_sums_equal_the_wide_layouts(inputs):
    codes, gradients, mapper, rows, _, _ = inputs
    rows = np.arange(codes.shape[0]) if rows is None else rows
    layout = HistogramLayout(codes, mapper)
    wide_counts, wide_sums = wide_tree._node_histograms(
        codes, rows, gradients, mapper.max_bins)
    compact = layout._histograms(rows, gradients)
    kept = []
    for group, (counts, sums) in zip(layout._groups, compact):
        for local, feature in enumerate(group.features):
            last = mapper.thresholds(feature).size  # the last bin, not kept
            pad = group.padding[local]
            assert pad + last == group.width
            for compact_hist, wide_hist in ((counts, wide_counts),
                                            (sums, wide_sums)):
                cumulative = np.cumsum(compact_hist[local])
                # Padded cells hold nothing, so their cumulative count is
                # 0 < min_samples_leaf: never a valid split.
                assert not compact_hist[local, :pad].any()
                assert (cumulative[pad:].tobytes()
                        == np.cumsum(wide_hist[feature])[:last].tobytes())
            kept.append(int(feature))
    # Exactly the features that can split are kept, each once.
    assert sorted(kept) == [j for j in range(codes.shape[1])
                            if mapper.thresholds(j).size]


def _root_split(X, gradients, rows=None, max_bins=64):
    mapper = BinMapper(max_bins).fit(X)
    codes = mapper.transform(X)
    params = {"rows": rows, "max_depth": 1, "min_samples_leaf": 1}
    tree = grow_tree(codes, gradients, mapper, **params)
    assert_same_tree(tree, wide_tree.grow_tree(codes, gradients, mapper,
                                               **params))
    return int(tree.feature[0]), int(tree.split_bin[0])


class TestTies:
    """Among equal gains the smallest feature wins, then the smallest bin."""

    values = np.repeat(np.arange(10.0), 4)
    # Integer gradients make every sum exact, so equal partitions tie.
    gradients = np.where(values < 5, 1.0, -1.0)

    def test_duplicate_feature(self):
        noise = np.random.default_rng(0).integers(0, 3, self.values.size)
        X = np.column_stack([noise, self.values < 5, self.values < 5])
        assert _root_split(X.astype(float), self.gradients) == (1, 0)

    @pytest.mark.parametrize("wide_first", [True, False])
    def test_across_groups(self, wide_first):
        # A 10-bin feature (wide group) and a 2-bin one (narrow group)
        # that split the rows the same way.
        columns = [self.values, (self.values >= 5).astype(float)]
        X = np.column_stack(columns if wide_first else columns[::-1])
        expected = (0, 4) if wide_first else (0, 0)
        assert _root_split(X, self.gradients) == expected

    def test_empty_bin_in_a_node(self):
        # Rows with value 5 are left out: splitting after bin 4 and after
        # bin 5 separates the same rows.
        rows = np.flatnonzero(self.values != 5)
        X = np.column_stack([self.values])
        assert _root_split(X, self.gradients, rows=rows) == (0, 4)


def test_colsample_mask_is_drawn_over_constant_features_too():
    rng = np.random.default_rng(5)
    X = np.column_stack([np.ones(300), rng.integers(0, 3, 300),
                         np.zeros(300), rng.normal(size=(300, 4))])
    gradients = X[:, 1] - X[:, 3] + rng.normal(0, 0.1, 300)
    mapper = BinMapper(16).fit(X)
    codes = mapper.transform(X)
    shipped_rng, oracle_rng = (np.random.default_rng(9),
                               np.random.default_rng(9))
    params = {"max_depth": 4, "min_samples_leaf": 5, "colsample": 0.5}
    tree = grow_tree(codes, gradients, mapper, rng=shipped_rng, **params)
    assert_same_tree(tree, wide_tree.grow_tree(codes, gradients, mapper,
                                               rng=oracle_rng, **params))
    assert shipped_rng.bit_generator.state == oracle_rng.bit_generator.state


class OracleLayout:
    """Stands in for :class:`HistogramLayout` in a boosting fit: every
    tree grows through the wide oracle."""

    def __init__(self, codes, mapper) -> None:
        self.codes, self.mapper = codes, mapper

    def grow(self, gradients, **params):
        return wide_tree.grow_tree(self.codes, gradients, self.mapper,
                                   **params)


FIT_CONFIGS = {
    "plain": {"n_estimators": 6, "early_stopping_rounds": None},
    "subsample-colsample": {"n_estimators": 6, "subsample": 0.7,
                            "colsample": 0.4,
                            "early_stopping_rounds": None},
    "max-bins-16": {"n_estimators": 6, "max_bins": 16, "max_depth": 8,
                    "min_samples_leaf": 3, "early_stopping_rounds": None},
    "early-stopping": {"n_estimators": 40, "learning_rate": 0.6,
                       "early_stopping_rounds": 2},
}


@pytest.mark.parametrize("config", sorted(FIT_CONFIGS))
@pytest.mark.parametrize("qft", ["simple", "range", "conjunctive", "complex"])
def test_fitted_forest_equals_the_oracles(qft, config, small_forest,
                                          conjunctive_workload,
                                          mixed_workload, monkeypatch):
    workload = mixed_workload if qft == "complex" else conjunctive_workload
    items = list(workload)[:300]
    X = BY_PAPER_LABEL[qft](small_forest).featurize_batch(
        [item.query for item in items])
    y = np.log(np.maximum([item.cardinality for item in items], 1.0))

    def fit_state() -> dict:
        return GradientBoostingRegressor(
            random_state=7, **FIT_CONFIGS[config]).fit(X, y).state_dict()

    shipped = fit_state()
    monkeypatch.setattr(gradient_boosting, "HistogramLayout", OracleLayout)
    oracle = fit_state()
    assert shipped["config"] == oracle["config"]
    assert sorted(shipped["arrays"]) == sorted(oracle["arrays"])
    for key, array in shipped["arrays"].items():
        assert array.tobytes() == oracle["arrays"][key].tobytes(), key


def test_one_fit_builds_one_layout(monkeypatch):
    built = []

    class CountingLayout(HistogramLayout):
        def __init__(self, codes, mapper) -> None:
            built.append(codes.shape)
            super().__init__(codes, mapper)

    monkeypatch.setattr(gradient_boosting, "HistogramLayout", CountingLayout)
    rng = np.random.default_rng(3)
    X = rng.integers(0, 3, size=(200, 6)).astype(float)
    GradientBoostingRegressor(n_estimators=5, early_stopping_rounds=None,
                              min_samples_leaf=5).fit(X, X[:, 0] - X[:, 1])
    assert built == [(200, 6)]
