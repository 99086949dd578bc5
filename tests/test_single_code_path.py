"""Runtime guards: batch entry points never fall back to per-item paths.

Each QFT has one encoder, the vectorized compile → encode kernel, and
``featurize(q)`` is its one-query batch; gradient boosting predicts
through its packed ``CompiledForest``.  A caller that loops the
per-query or per-tree surface still returns correct numbers, only
slower, so equivalence tests cannot see the regression.  These tests
make the per-item surface raise and check that every batch entry point
still answers, and answers the same.
"""

from __future__ import annotations

import numpy as np

from repro.estimators import LearnedEstimator
from repro.estimators.groupby import (
    GroupCountEstimator,
    generate_groupby_workload,
)
from repro.featurize import (
    ConjunctiveEncoding,
    DisjunctionEncoding,
    Featurizer,
    GlobalJoinFeaturizer,
    JoinQueryFeaturizer,
    TableSetVector,
)
from repro.featurize.analysis import collision_report
from repro.models import GradientBoostingRegressor
from repro.models.mscn import MSCNInputBuilder
from repro.models.tree import RegressionTree
from repro.serve import EstimationService
from tests.featurize.test_batch_equivalence import featurizer_cases


def _refuse(what):
    def method(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__}.{what} called")
    return method


def _fit_learned(featurizer, workload, n=200):
    items = list(workload)[:n]
    return LearnedEstimator(
        featurizer, GradientBoostingRegressor(n_estimators=10),
    ).fit([item.query for item in items],
          np.asarray([item.cardinality for item in items], dtype=float))


def test_batch_entry_points_never_featurize_one_query(
        monkeypatch, small_forest, conjunctive_workload, mixed_workload,
        imdb_schema, joblight_bench):
    for cls in (Featurizer, JoinQueryFeaturizer, GlobalJoinFeaturizer,
                TableSetVector):
        monkeypatch.setattr(cls, "featurize", _refuse("featurize"))
    queries = conjunctive_workload.queries[:50]

    for label, featurizer in featurizer_cases(small_forest):
        matrix = featurizer.featurize_batch(queries)
        assert matrix.shape == (50, featurizer.feature_length), label

    def factory(table, attributes):
        return ConjunctiveEncoding(table, attributes, max_partitions=8)

    join_queries = joblight_bench.queries
    GlobalJoinFeaturizer(imdb_schema, factory).featurize_batch(join_queries)
    tables = join_queries[0].tables
    local = JoinQueryFeaturizer(imdb_schema, tables, factory)
    local.featurize_batch([q for q in join_queries
                           if set(q.tables) == set(tables)])

    sets = MSCNInputBuilder(imdb_schema, mode="qft",
                            max_partitions=8).build(join_queries)
    assert sets[2].data.shape[0] == len(join_queries)

    estimator = _fit_learned(
        DisjunctionEncoding(small_forest, max_partitions=8), mixed_workload)
    assert estimator.estimate_batch(mixed_workload.queries[:20]).shape == (20,)

    grouped = list(generate_groupby_workload(small_forest, 60, seed=5))
    counter = GroupCountEstimator(
        ConjunctiveEncoding(small_forest, max_partitions=8), small_forest,
        GradientBoostingRegressor(n_estimators=5),
    ).fit([item.query for item in grouped],
          np.asarray([item.cardinality for item in grouped], dtype=float))
    assert counter.estimate_batch(
        [item.query for item in grouped[:10]]).shape == (10,)

    report = collision_report(ConjunctiveEncoding(small_forest,
                                                  max_partitions=8),
                              conjunctive_workload)
    assert report.total_queries == len(conjunctive_workload)

    service = EstimationService(
        _fit_learned(ConjunctiveEncoding(small_forest, max_partitions=8),
                     conjunctive_workload), cache_size=0)
    try:
        assert len(service.estimate_many_sql(
            [q.to_sql() for q in queries])) == 50
    finally:
        service.close()


def test_forest_inference_never_loops_trees(monkeypatch, small_forest,
                                            conjunctive_workload):
    estimator = _fit_learned(ConjunctiveEncoding(small_forest,
                                                 max_partitions=8),
                             conjunctive_workload)
    queries = conjunctive_workload.queries[200:260]
    sqls = [q.to_sql() for q in queries]
    features = estimator.featurizer.featurize_batch(queries)
    model = estimator.model.model

    def answers():
        service = EstimationService(estimator, cache_size=0)
        try:
            singles = [service.estimate(sql)[0] for sql in sqls[:5]]
            return (model.predict(features), estimator.estimate_batch(queries),
                    np.asarray(singles),
                    np.asarray(service.estimate_many_sql(sqls)))
        finally:
            service.close()

    before = answers()
    monkeypatch.setattr(RegressionTree, "predict", _refuse("predict"))
    monkeypatch.setattr(RegressionTree, "predict_binned",
                        _refuse("predict_binned"))
    for got, want in zip(answers(), before):
        np.testing.assert_array_equal(got, want)
