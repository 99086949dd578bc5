"""Tests for interval folding and the oracle's uniformity selectivity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.stats import build_stats
from repro.featurize.selectivity import fold_conjunction
from repro.sql.ast import Op, SimplePredicate
from tests.featurize.reference import uniform_selectivity


@pytest.fixture(scope="module")
def int_stats():
    return build_stats(np.arange(0.0, 100.0))  # domain [0, 99], size 100


def p(op, val):
    return SimplePredicate("A", Op.from_symbol(op), val)


class TestFolding:
    def test_point_and_range_folding(self, int_stats):
        interval = fold_conjunction([p("=", 5)], int_stats)
        assert (interval.lo, interval.hi) == (5, 5)

        interval = fold_conjunction([p("<=", 5)], int_stats)
        assert (interval.lo, interval.hi) == (0, 5)

        interval = fold_conjunction([p("<", 5)], int_stats)
        assert (interval.lo, interval.hi) == (0, 4)

        interval = fold_conjunction([p(">", 5)], int_stats)
        assert (interval.lo, interval.hi) == (6, 99)

    def test_intersection(self, int_stats):
        interval = fold_conjunction(
            [p(">=", 10), p("<=", 50), p(">=", 20), p("<", 40)], int_stats)
        assert (interval.lo, interval.hi) == (20, 39)

    def test_exclusions_recorded(self, int_stats):
        interval = fold_conjunction([p("<>", 5), p("<>", 7)], int_stats)
        assert interval.excluded == {5, 7}
        assert 5 not in interval
        assert 6 in interval

    def test_empty_interval(self, int_stats):
        interval = fold_conjunction([p(">", 50), p("<", 40)], int_stats)
        assert interval.is_empty

    def test_continuous_strict_bound_uses_small_step(self):
        stats = build_stats(np.asarray([0.0, 10.5]))
        interval = fold_conjunction([p("<", 5.0)], stats)
        assert 4.999 < interval.hi < 5.0


class TestUniformSelectivity:
    def test_full_domain(self, int_stats):
        interval = fold_conjunction([], int_stats)
        assert uniform_selectivity(interval, int_stats) == 1.0

    def test_point_on_integers(self, int_stats):
        interval = fold_conjunction([p("=", 5)], int_stats)
        assert uniform_selectivity(interval, int_stats) == pytest.approx(1 / 100)

    def test_range_with_exclusions(self, int_stats):
        interval = fold_conjunction(
            [p(">=", 10), p("<=", 19), p("<>", 12), p("<>", 99)], int_stats)
        # 10 values minus 1 excluded inside (99 lies outside the range).
        assert uniform_selectivity(interval, int_stats) == pytest.approx(9 / 100)

    def test_empty_interval_is_zero(self, int_stats):
        interval = fold_conjunction([p(">", 50), p("<", 40)], int_stats)
        assert uniform_selectivity(interval, int_stats) == 0.0

    def test_continuous_equality_uses_distinct_count(self):
        stats = build_stats(np.asarray([0.5, 1.5, 2.5, 3.5]))
        interval = fold_conjunction([p("=", 1.5)], stats)
        assert uniform_selectivity(interval, stats) == pytest.approx(1 / 4)

    @given(st.lists(
        st.tuples(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
                  st.integers(min_value=-10, max_value=110)),
        min_size=0, max_size=6,
    ))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_on_integer_domain(self, int_stats, spec):
        """The uniformity selectivity equals the exact qualifying fraction
        of the integer domain, for any conjunction of simple predicates."""
        predicates = [p(op, val) for op, val in spec]
        interval = fold_conjunction(predicates, int_stats)
        domain = np.arange(0, 100)
        mask = np.ones(100, dtype=bool)
        ops = {"=": np.equal, "<>": np.not_equal, "<": np.less,
               "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal}
        for op, val in spec:
            mask &= ops[op](domain, val)
        expected = mask.sum() / 100
        assert uniform_selectivity(interval, int_stats) == pytest.approx(expected)
