"""Tests for the featurization-analysis tools (Definition 3.1 decoder)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.table import Table
from repro.featurize import ConjunctiveEncoding, DisjunctionEncoding, RangeEncoding
from repro.featurize.analysis import (
    CollisionReport,
    collision_report,
    decode,
    is_lossless_for,
)
from repro.sql.ast import And, Op, Query, SimplePredicate
from repro.sql.executor import selection_mask
from repro.sql.parser import parse_where
from repro.workloads.spec import LabeledQuery, Workload

DOMAIN = 15


@pytest.fixture(scope="module")
def table():
    rng = np.random.default_rng(8)
    return Table("t", {
        "A": rng.integers(0, DOMAIN, 300).astype(float),
        "B": rng.integers(0, DOMAIN, 300).astype(float),
    })


@pytest.fixture(scope="module")
def exact(table):
    # Each column may not span the full [0, DOMAIN) range; rely on the
    # encoder's per-attribute domain size (one partition per value).
    return ConjunctiveEncoding(table, max_partitions=64,
                               attr_selectivity=False)


class TestLosslessness:
    def test_exact_detection(self, table, exact):
        assert is_lossless_for(exact)
        coarse = ConjunctiveEncoding(table, max_partitions=4)
        assert not is_lossless_for(coarse)

    def test_decode_rejects_inexact(self, table):
        coarse = ConjunctiveEncoding(table, max_partitions=4,
                                     attr_selectivity=False)
        vector = coarse.featurize(parse_where("A > 3"))
        with pytest.raises(ValueError, match="exact resolution"):
            decode(coarse, vector)

    def test_decode_rejects_wrong_shape(self, exact):
        with pytest.raises(ValueError, match="shape"):
            decode(exact, np.ones(3))


class TestDecode:
    def check_round_trip(self, exact, table, expr):
        vector = exact.featurize(expr)
        reconstructed = decode(exact, vector)
        original_mask = selection_mask(expr, table)
        decoded_mask = selection_mask(reconstructed.where, table)
        np.testing.assert_array_equal(original_mask, decoded_mask)

    def test_simple_cases(self, exact, table):
        for sql in ("A = 7", "A > 3 AND A <= 10", "A <> 5",
                    "A >= 2 AND A <= 12 AND A <> 4 AND A <> 9 AND B < 6"):
            self.check_round_trip(exact, table, parse_where(sql))

    def test_no_predicate(self, exact, table):
        query = decode(exact, exact.featurize(None))
        assert query.where is None
        assert query.tables == ("t",)

    def test_unsatisfiable_query(self, exact, table):
        expr = parse_where("A > 5 AND A < 3")
        reconstructed = decode(exact, exact.featurize(expr))
        assert selection_mask(reconstructed.where, table).sum() == 0

    def test_disjunction_vectors_decode_too(self, table):
        """At exact resolution even Limited Disjunction Encoding vectors
        invert — the union becomes range + exclusions."""
        enc = DisjunctionEncoding(table, max_partitions=64,
                                  attr_selectivity=False)
        expr = parse_where("A <= 3 OR A >= 11")
        vector = enc.featurize(expr)
        reconstructed = decode(enc, vector)
        np.testing.assert_array_equal(
            selection_mask(expr, table),
            selection_mask(reconstructed.where, table),
        )

    predicates = st.lists(
        st.builds(SimplePredicate,
                  attribute=st.sampled_from(["A", "B"]),
                  op=st.sampled_from(list(Op)),
                  value=st.integers(min_value=-1, max_value=DOMAIN).map(float)),
        min_size=1, max_size=5,
    )

    @given(predicates)
    @settings(max_examples=150, deadline=None)
    def test_round_trip_property(self, table, exact, preds):
        """decode(featurize(Q)) always has exactly Q's result set —
        the constructive proof of Definition 3.1 at exact resolution."""
        expr = And(preds) if len(preds) > 1 else preds[0]
        self.check_round_trip(exact, table, expr)


class TestCollisionReport:
    def _workload(self, table, sqls):
        items = []
        for sql in sqls:
            expr = parse_where(sql)
            card = int(selection_mask(expr, table).sum())
            items.append(LabeledQuery(
                query=Query.single_table("t", expr),
                cardinality=max(card, 1), num_attributes=1, num_predicates=1,
            ))
        return Workload(items, "w")

    def test_lossy_featurizer_collides(self, table):
        """Range encoding drops <>: two different queries, one vector."""
        enc = RangeEncoding(table)
        workload = self._workload(table, [
            "A >= 2 AND A <= 12",
            "A >= 2 AND A <= 12 AND A <> 5",
        ])
        report = collision_report(enc, workload)
        assert report.colliding_queries == 2
        assert report.distinct_vectors == 1
        assert report.collision_rate == 1.0
        assert report.worst_spread > 1.0

    def test_exact_featurizer_does_not_collide(self, table, exact):
        workload = self._workload(table, [
            "A >= 2 AND A <= 12",
            "A >= 2 AND A <= 12 AND A <> 5",
            "A = 3",
        ])
        report = collision_report(exact, workload)
        assert report.colliding_queries == 0
        assert report.collision_rate == 0.0
        assert report.distinct_vectors == 3

    def test_report_dataclass(self):
        report = CollisionReport(total_queries=0, distinct_vectors=0,
                                 colliding_queries=0, worst_spread=1.0)
        assert report.collision_rate == 0.0


class TestErrorPaths:
    """Failure modes of the Definition-3.1 tooling, exercised explicitly."""

    def test_decode_error_names_the_inexact_attributes(self, table):
        """The ValueError tells the user *which* attributes block the
        inverse, so max_partitions can be raised surgically."""
        coarse = ConjunctiveEncoding(table, max_partitions=4,
                                     attr_selectivity=False)
        vector = coarse.featurize(parse_where("A > 3"))
        with pytest.raises(ValueError) as excinfo:
            decode(coarse, vector)
        message = str(excinfo.value)
        assert "exact resolution" in message
        assert "'A'" in message and "'B'" in message
        assert "max_partitions" in message

    def test_decode_rejects_vector_from_other_featurizer(self, table, exact):
        """A vector of the wrong geometry cannot silently decode."""
        other = RangeEncoding(table)
        vector = other.featurize(parse_where("A > 3"))
        assert vector.shape != (exact.feature_length,)
        with pytest.raises(ValueError, match="shape"):
            decode(exact, vector)

    def test_decode_rejects_transposed_batch(self, exact):
        """featurize_batch output (2-D) is not a single vector."""
        batch = exact.featurize_batch([None, None])
        with pytest.raises(ValueError, match="shape"):
            decode(exact, batch)

    def test_collision_report_on_known_colliding_workload(self, table):
        """Three <>-variants of one range collapse onto one Range-encoding
        vector with at least two different cardinalities: all three
        queries are Equation-4 violations, including two that repeat a
        cardinality (``<> 2.5`` excludes no integer row), and the spread
        is the max/min ratio."""
        enc = RangeEncoding(table)
        inputs = [
            ["A >= 2 AND A <= 12",
             "A >= 2 AND A <= 12 AND A <> 5",
             "A >= 2 AND A <= 12 AND A <> 5 AND A <> 7"],
            ["A >= 2 AND A <= 12",
             "A >= 2 AND A <= 12 AND A <> 2.5",
             "A >= 2 AND A <= 12 AND A <> 5"],
        ]
        for sqls, distinct_cards in zip(inputs, (3, 2)):
            workload = TestCollisionReport._workload(self, table, sqls)
            cards = [item.cardinality for item in workload]
            assert len(set(cards)) == distinct_cards
            report = collision_report(enc, workload)
            assert report.total_queries == 3
            assert report.distinct_vectors == 1
            assert report.colliding_queries == 3
            assert report.collision_rate == 1.0
            assert report.worst_spread == pytest.approx(
                max(cards) / min(cards))

    def test_collision_report_empty_workload(self, exact):
        """Workload objects refuse to be empty, but collision_report
        accepts any iterable of labeled queries; zero queries must not
        divide by zero in the rate."""
        report = collision_report(exact, [])
        assert report.total_queries == 0
        assert report.collision_rate == 0.0
        assert report.worst_spread == 1.0
