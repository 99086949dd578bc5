"""Learned group-count estimation (the Section 6 GROUP BY extension).

"GROUP BY clauses can significantly impact query result sizes.  We
outline how to featurize GROUP BY clauses such that combination with any
QFT is easy" — the binary grouping vector of
:class:`~repro.featurize.groupby.GroupByVector`.

This module makes the outline functional: :class:`GroupCountEstimator`
concatenates any QFT's selection featurization with the grouping vector
and regresses the **number of groups** a query produces (the result size
of a ``SELECT ... GROUP BY`` count query).  Training labels come from
the executor's exact :func:`~repro.sql.executor.group_count`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import config
from repro.data.table import Table
from repro.estimators.base import CardinalityEstimator
from repro.estimators.learned import VectorFeaturizer
from repro.featurize.groupby import GroupByVector
from repro.models.base import LogSpaceRegressor, Regressor
from repro.sql.ast import Query
from repro.sql.executor import group_count
from repro.workloads.conjunctive import generate_conjunctive_workload
from repro.workloads.spec import LabeledQuery, Workload

__all__ = ["GroupCountEstimator", "generate_groupby_workload"]


class GroupCountEstimator(CardinalityEstimator):
    """QFT ⊕ grouping-vector featurization with a log-space regressor."""

    name = "group-count"

    def __init__(self, featurizer: VectorFeaturizer, table: Table,
                 model: Regressor) -> None:
        self._featurizer = featurizer
        self._groupby = GroupByVector(table, getattr(featurizer, "attributes",
                                                     None))
        self._model = LogSpaceRegressor(model)
        self._fitted = False

    @property
    def feature_length(self) -> int:
        """QFT segment plus one grouping bit per attribute."""
        return self._featurizer.feature_length + self._groupby.feature_length

    def _features(self, queries: Sequence[Query]) -> np.ndarray:
        """QFT selection matrix (one batch encode) ⊕ grouping vectors."""
        queries = list(queries)
        grouping = np.zeros((len(queries), self._groupby.feature_length))
        for row, query in enumerate(queries):
            grouping[row] = self._groupby.featurize(query)
        return np.hstack([
            self._featurizer.featurize_batch([q.where for q in queries]),
            grouping,
        ])

    def fit(self, queries: Sequence[Query], group_counts: np.ndarray
            ) -> "GroupCountEstimator":
        """Train on queries with known group counts."""
        features = self._features(queries)
        self._model.fit(features, np.asarray(group_counts, dtype=np.float64))
        self._fitted = True
        return self

    def estimate(self, query: Query) -> float:
        if not self._fitted:
            raise RuntimeError("estimator must be fitted before estimating")
        if not query.group_by:
            raise ValueError(
                "query has no GROUP BY clause; use a cardinality estimator"
            )
        return float(self._model.predict(self._features([query]))[0])

    def estimate_batch(self, queries) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("estimator must be fitted before estimating")
        return self._model.predict(self._features(queries))


def generate_groupby_workload(table: Table, num_queries: int,
                              max_attributes: int = 3,
                              max_group_columns: int = 2,
                              group_columns=None,
                              seed: int = config.DEFAULT_SEED,
                              name: str = "groupby") -> Workload:
    """Labeled GROUP BY workload: selections + random grouping columns.

    Selection predicates follow the conjunctive recipe; 1..
    ``max_group_columns`` grouping attributes are drawn per query (from
    ``group_columns`` if given, else all columns) and the label is the
    exact number of groups.  ``cardinality`` on the returned items
    therefore holds the *group count*.
    """
    rng = np.random.default_rng(seed)
    base = generate_conjunctive_workload(
        table, num_queries, max_attributes=max_attributes, seed=seed,
        name=name,
    )
    candidates = (list(group_columns) if group_columns is not None
                  else table.column_names)
    missing = [c for c in candidates if c not in table]
    if missing:
        raise KeyError(f"group columns {missing} not in table {table.name!r}")
    columns = np.asarray(candidates)
    items: list[LabeledQuery] = []
    for item in base:
        k = int(rng.integers(1, max_group_columns + 1))
        group_by = tuple(rng.choice(columns, size=k, replace=False))
        query = Query.single_table(table.name, item.query.where,
                                   group_by=group_by)
        groups = group_count(query, table)
        if groups < 1:
            # The selection matched rows (the base workload guarantees
            # it), so at least one group always exists; guard anyway.
            continue
        items.append(LabeledQuery(
            query=query,
            cardinality=groups,
            num_attributes=item.num_attributes,
            num_predicates=item.num_predicates,
        ))
    return Workload(items, name)
