"""Limited Disjunction Encoding (paper label: ``complex``; Section 3.3).

The first QFT designed for queries mixing conjunctions and disjunctions.
Its scope is the class of **mixed queries** (Definition 3.3): a
conjunction of per-attribute *compound predicates*, each an arbitrary
AND/OR combination of simple predicates over a single attribute.

Algorithm 2: each compound predicate is brought into disjunctive form;
every disjunction branch (a conjunction) is featurized with Universal
Conjunction Encoding's per-attribute routine; the branch vectors are then
merged by the **entry-wise maximum** — mirroring that additional
disjunctions can only make a query less selective.  The appended
per-attribute selectivity estimate participates in the same max-merge.

For purely conjunctive queries the output is identical to Universal
Conjunction Encoding (the paper relies on this in Table 1: "the feature
vectors of Limited Disjunction Encoding and Universal Conjunction
Encoding are equal" on JOB-light).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from repro.featurize.batch import BatchBuilder, PredicateBatch
from repro.featurize.conjunctive import ConjunctiveEncoding
from repro.sql.ast import (
    And,
    BoolExpr,
    CompoundForm,
    Or,
    UnsupportedQueryError,
    to_compound_form,
)

__all__ = ["DisjunctionEncoding"]


class DisjunctionEncoding(ConjunctiveEncoding):
    """Limited Disjunction Encoding (Algorithm 2).

    Accepts every query Universal Conjunction Encoding accepts, plus mixed
    queries per Definition 3.3.  Queries outside that class (a disjunction
    spanning several attributes) raise
    :class:`~repro.sql.ast.UnsupportedQueryError`.

    ``merge`` selects how disjunction branches combine: ``"max"`` is the
    paper's Algorithm 2 (entry-wise maximum); ``"sum"`` is an ablation
    alternative (entry-wise sum clipped to 1) that over-counts partitions
    covered by several branches — our ablation benchmark quantifies the
    difference.
    """

    name = "complex"

    def __init__(self, table, attributes=None, max_partitions=None,
                 attr_selectivity: bool = True, merge: str = "max") -> None:
        from repro import config as _config

        if merge not in ("max", "sum"):
            raise ValueError(f"merge must be 'max' or 'sum', got {merge!r}")
        if max_partitions is None:
            max_partitions = _config.DEFAULT_PARTITIONS
        super().__init__(table, attributes, max_partitions=max_partitions,
                         attr_selectivity=attr_selectivity)
        self._merge = merge

    def get_config(self) -> dict:
        config = super().get_config()
        config["merge"] = self._merge
        return config

    def _compile_exprs(self, exprs: Sequence[BoolExpr | None]
                       ) -> PredicateBatch:
        """Compile mixed queries, one branch group per disjunction branch.

        Each query is normalised into Definition 3.3 form
        (:meth:`_compound_form`); its attributes are visited in
        feature-space order and each compound predicate's branches in
        order, so the rows come out grouped by (query, attribute,
        branch) without a sort.
        """
        builder = BatchBuilder(self._attributes)
        attr_ids = self._attr_ids
        for qi, expr in enumerate(exprs):
            if expr is None:
                continue
            compound = self._compound_form(expr)
            builder.add_query(qi, sorted(zip(
                map(attr_ids.__getitem__, compound), compound.values())))
        return builder.build(len(exprs))

    def _compound_form(self, expr: BoolExpr) -> CompoundForm:
        """``expr`` in Definition 3.3 form, keyed by feature-space names.

        A query whose attributes are all spelled as in the feature space
        (every unqualified query) costs one ``to_compound_form`` pass.
        Otherwise this table's prefix is stripped first, so mixed
        spellings of one attribute (``forest.A1 > 5 OR A1 < 2``) form
        one compound and encode like the unqualified query, and an
        attribute outside the feature space raises ``KeyError``.
        """
        try:
            compound = to_compound_form(expr)
        except UnsupportedQueryError:
            compound = None
        if compound is not None and compound.keys() <= self._stats.keys():
            return compound
        compound = to_compound_form(self._without_table_prefix(expr))
        for branches in compound.values():
            # Raises the unknown-attribute KeyError for names outside
            # the feature space.
            self._resolve(branches[0][0])
        return compound

    def _without_table_prefix(self, expr: BoolExpr) -> BoolExpr:
        """``expr`` with this table's prefix stripped from its attributes."""
        if isinstance(expr, (And, Or)):
            return type(expr)([self._without_table_prefix(child)
                               for child in expr.children])
        prefix = self.table_name + "."
        if expr.attribute.startswith(prefix):
            return replace(expr, attribute=expr.attribute[len(prefix):])
        return expr

    def _merge_branch(self, merged: np.ndarray,
                      branch: np.ndarray) -> np.ndarray:
        if self._merge == "max":
            return super()._merge_branch(merged, branch)
        # Entry-wise sum clipped to 1 after each branch, in branch order
        # (float addition does not reassociate), so the result is the
        # sequential merge of Algorithm 2 bitwise.
        return np.minimum(merged + branch, 1.0)
