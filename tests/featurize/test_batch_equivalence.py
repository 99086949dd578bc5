"""Batch featurization must be bitwise-identical to the reference QFTs.

The compile → encode pipeline (``compile_batch`` +
``_featurize_compiled``) is every QFT's only encoder; the per-query,
per-predicate transcription of the paper's definitions lives in
:mod:`tests.featurize.reference` as the oracle.  The contract is exact
equality — not approximate: ``featurize_batch(queries)`` row ``i``
equals the oracle's encoding of ``queries[i]`` to the last bit, for
every QFT, on conjunctive, mixed, and predicate-free queries alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.featurize import (
    ConjunctiveEncoding,
    DisjunctionEncoding,
    EquiDepthConjunctiveEncoding,
    GlobalJoinFeaturizer,
    LosslessnessError,
    RangeEncoding,
    SingularEncoding,
)
from repro.sql.ast import Query
from tests.featurize import reference


def featurizer_cases(table):
    """(label, featurizer) pairs covering every QFT and merge variant."""
    return [
        ("simple", SingularEncoding(table)),
        ("range", RangeEncoding(table)),
        ("conjunctive", ConjunctiveEncoding(table, max_partitions=16)),
        ("conjunctive-no-sel",
         ConjunctiveEncoding(table, max_partitions=16,
                             attr_selectivity=False)),
        ("equidepth",
         EquiDepthConjunctiveEncoding(table, max_partitions=16)),
        ("complex-max",
         DisjunctionEncoding(table, max_partitions=16, merge="max")),
        ("complex-sum",
         DisjunctionEncoding(table, max_partitions=16, merge="sum")),
    ]


def plan_encode(featurizer, queries):
    """Encode ``queries`` the way the serving planned leg does: one
    ``compile_plan`` per distinct shape, one stitched encode."""
    exprs = [featurizer.extract_expr(q) for q in queries]
    shaped = [reference.query_shape(e) for e in exprs]
    plans: dict = {}
    per_query = []
    for (key, _), expr in zip(shaped, exprs):
        if key not in plans:
            plans[key] = featurizer.compile_plan(
                *reference.plan_template(expr))
        per_query.append(plans[key])
    return featurizer.encode_with_plans(
        per_query, [literals for _, literals in shaped])


class TestConjunctiveWorkloadEquivalence:
    def test_every_qft_matches_scalar(self, small_forest,
                                      conjunctive_workload):
        queries = conjunctive_workload.queries
        for label, featurizer in featurizer_cases(small_forest):
            batch = featurizer.featurize_batch(queries)
            expected = reference.matrix(featurizer, queries)
            assert np.array_equal(batch, expected), (
                f"{label}: batch diverges from the oracle on conjunctive "
                "queries"
            )

    def test_batch_shape_and_dtype(self, small_forest, conjunctive_workload):
        queries = conjunctive_workload.queries
        featurizer = ConjunctiveEncoding(small_forest, max_partitions=16)
        batch = featurizer.featurize_batch(queries)
        assert batch.shape == (len(queries), featurizer.feature_length)
        assert batch.dtype == np.float64


class TestMixedWorkloadEquivalence:
    @pytest.mark.parametrize("merge", ["max", "sum"])
    def test_disjunction_encoding_matches_scalar(self, small_forest,
                                                 mixed_workload, merge):
        queries = mixed_workload.queries
        featurizer = DisjunctionEncoding(small_forest, max_partitions=16,
                                         merge=merge)
        batch = featurizer.featurize_batch(queries)
        assert np.array_equal(batch, reference.matrix(featurizer, queries))


class TestEdgeCases:
    def test_predicate_free_queries(self, small_forest):
        queries = [Query.single_table(small_forest.name)] * 3
        for label, featurizer in featurizer_cases(small_forest):
            batch = featurizer.featurize_batch(queries)
            expected = reference.matrix(featurizer, queries)
            assert np.array_equal(batch, expected), (
                f"{label}: batch diverges from the oracle on empty WHERE"
            )

    def test_empty_batch_contract(self, small_forest):
        for label, featurizer in featurizer_cases(small_forest):
            batch = featurizer.featurize_batch([])
            assert batch.shape == (0, featurizer.feature_length), label
            assert batch.dtype == np.float64, label

    def test_single_query_batch_equals_featurize(self, small_forest,
                                                 conjunctive_workload):
        query = conjunctive_workload.queries[0]
        for label, featurizer in featurizer_cases(small_forest):
            batch = featurizer.featurize_batch([query])
            assert np.array_equal(batch[0], featurizer.featurize(query)), label


class TestPlanEncodeEquivalence:
    """Shape plans are an exact re-packaging of the compile stage.

    ``compile_plan`` + ``encode_with_plans`` must reproduce
    ``featurize_batch`` bitwise — one plan reused across a batch,
    mixed-shape stitching, predicate-free queries — for every QFT.
    This is the contract the serving pipeline's planned leg stands on.
    """

    def test_stitched_encode_matches_batch_every_qft(
            self, small_forest, conjunctive_workload):
        queries = [q for q in conjunctive_workload.queries[:64]]
        queries.append(Query.single_table(small_forest.name))
        for label, featurizer in featurizer_cases(small_forest):
            matrix = plan_encode(featurizer, queries)
            assert np.array_equal(matrix, featurizer.featurize_batch(
                queries)), f"{label}: stitched plan encode diverges from batch"
            assert np.array_equal(matrix, reference.matrix(
                featurizer, queries)), (
                f"{label}: stitched plan encode diverges from the oracle")

    def test_stitched_encode_matches_on_disjunctions(
            self, small_forest, mixed_workload):
        queries = mixed_workload.queries[:48]
        for merge in ("max", "sum"):
            featurizer = DisjunctionEncoding(small_forest,
                                             max_partitions=16, merge=merge)
            matrix = plan_encode(featurizer, queries)
            assert np.array_equal(matrix,
                                  featurizer.featurize_batch(queries)), merge
            assert np.array_equal(
                matrix, reference.matrix(featurizer, queries)), merge

    def test_same_shape_bind_matches_batch(self, small_forest,
                                           conjunctive_workload):
        query = conjunctive_workload.queries[0]
        featurizer = ConjunctiveEncoding(small_forest, max_partitions=16)
        expr = featurizer.extract_expr(query)
        _, literals = reference.query_shape(expr)
        plan = featurizer.compile_plan(*reference.plan_template(expr))
        rows = [literals, literals * 0.5, literals + 1.0]
        matrix = featurizer.encode_with_plans([plan] * 3, rows)
        # Oracle cross-check on the first row (identical literals).
        assert np.array_equal(matrix[0],
                              reference.featurize(featurizer, query))

    def test_plan_validation_errors(self, small_forest,
                                    conjunctive_workload):
        from repro.featurize.batch import stitch_plans
        featurizer = ConjunctiveEncoding(small_forest, max_partitions=16)
        other = ConjunctiveEncoding(
            small_forest, attributes=featurizer.attributes[:1],
            max_partitions=16)
        plan = other.compile_plan(None, 0)
        with pytest.raises(ValueError, match="different feature space"):
            featurizer.encode_with_plans([plan], [np.empty(0)])
        with pytest.raises(ValueError, match="parallel"):
            stitch_plans([plan], [])
        with pytest.raises(ValueError, match="empty batch"):
            stitch_plans([], [])


class TestLosslessnessParity:
    """featurize and featurize_batch reject out-of-scope queries with the
    oracle's exact error message."""

    @pytest.mark.parametrize("build", [
        SingularEncoding,
        lambda table: ConjunctiveEncoding(table, max_partitions=16),
    ])
    def test_disjunction_rejected_with_scalar_message(self, small_forest,
                                                      mixed_workload, build):
        featurizer = build(small_forest)
        disjunctive = next(
            q for q in mixed_workload.queries if not q.is_conjunctive()
        )
        with pytest.raises(LosslessnessError) as oracle_error:
            reference.featurize(featurizer, disjunctive)
        with pytest.raises(LosslessnessError) as scalar_error:
            featurizer.featurize(disjunctive)
        with pytest.raises(LosslessnessError) as batch_error:
            featurizer.featurize_batch([disjunctive])
        assert str(scalar_error.value) == str(oracle_error.value)
        assert str(batch_error.value) == str(oracle_error.value)


class TestGlobalJoinEquivalence:
    def test_global_featurizer_matches_scalar(self, imdb_schema,
                                              joblight_bench):
        def factory(table, attributes):
            return ConjunctiveEncoding(table, attributes, max_partitions=8)

        featurizer = GlobalJoinFeaturizer(imdb_schema, factory)
        queries = joblight_bench.queries
        batch = featurizer.featurize_batch(queries)
        assert np.array_equal(batch, reference.matrix(featurizer, queries))
