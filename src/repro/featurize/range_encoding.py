"""Range Predicate Encoding (paper label: ``range``; Section 3.1).

Per attribute, the feature vector holds one *closed range* ``[lo, hi]``
normalised to ``[0, 1]``.  All point and range predicate types fold into
closed ranges: ``A = 5 -> [5, 5]``, ``A <= 5 -> [min(A), 5]``, and strict
bounds tighten by one step on integer domains (``A < 5 -> [min(A), 4]``).
Multiple AND-connected bounds on one attribute intersect naturally, so the
workloads' closed-range predicate pairs (``A >= lo AND A <= hi``) are
encoded losslessly.

**Deliberate information loss**: ``<>`` (not-equal) predicates have no
representation in a single range and are dropped — this causes the 99 %
error spike at three predicates per attribute the paper observes in
Figure 3.  Disjunctions raise
:class:`~repro.featurize.base.LosslessnessError`.

Attributes without predicates encode the full range ``[0, 1]``; an
unsatisfiable (empty) intersection encodes as the inverted range
``[1, 0]``, which is distinguishable from every satisfiable query.
"""

from __future__ import annotations

import numpy as np

from repro.featurize.base import Featurizer, LosslessnessError
from repro.featurize.batch import (
    OP_EQ,
    OP_GE,
    OP_GT,
    OP_LE,
    OP_LT,
    OP_NE,
    PredicateBatch,
)
from repro.sql.ast import BoolExpr, shape_sql

__all__ = ["RangeEncoding"]

#: Entries per attribute: normalised lower and upper bound.
_ENTRIES_PER_ATTRIBUTE = 2


class RangeEncoding(Featurizer):
    """Range Predicate Encoding: one normalised closed range per attribute."""

    name = "range"

    @property
    def feature_length(self) -> int:
        """Dimension of the produced feature vectors."""
        return _ENTRIES_PER_ATTRIBUTE * len(self.attributes)

    def _disjunction_error(self, expr: BoolExpr) -> LosslessnessError:
        return LosslessnessError(
            "Range Predicate Encoding cannot represent disjunctions; "
            f"got: {shape_sql(expr)}"
        )

    def _featurize_compiled(self, batch: PredicateBatch) -> np.ndarray:
        # Default: the full domain [0, 1] for every attribute.
        matrix = np.empty((batch.n_queries, self.feature_length),
                          dtype=np.float64)
        matrix[:, 0::2] = 0.0
        matrix[:, 1::2] = 1.0
        if batch.n_predicates == 0:
            return matrix
        # Fold each segment's conjunction into one closed interval with
        # grouped max/min over the segment boundaries the compile stage
        # emitted.  <> predicates cannot be folded into a single closed
        # range and are dropped (this QFT's defining information loss):
        # their candidates are the neutral ±inf, and segments
        # constrained only by <> keep the full-domain default.
        ops = batch.op_code
        values = batch.value
        steps = self._steps[batch.attr_index]
        lo_cand = np.full(values.shape, -np.inf)
        hi_cand = np.full(values.shape, np.inf)
        point = ops == OP_EQ
        lo_cand[point] = values[point]
        hi_cand[point] = values[point]
        lower = ops == OP_GE
        lo_cand[lower] = values[lower]
        lower = ops == OP_GT
        lo_cand[lower] = values[lower] + steps[lower]
        upper = ops == OP_LE
        hi_cand[upper] = values[upper]
        upper = ops == OP_LT
        hi_cand[upper] = values[upper] - steps[upper]

        starts = batch.segment_rows
        bounded = np.logical_or.reduceat(ops != OP_NE, starts)
        group_attrs = batch.segment_attr[bounded]
        group_queries = batch.segment_query[bounded]
        lo = np.maximum(np.maximum.reduceat(lo_cand, starts)[bounded],
                        self._min_values[group_attrs])
        hi = np.minimum(np.minimum.reduceat(hi_cand, starts)[bounded],
                        self._max_values[group_attrs])
        empty = lo > hi
        lo_norm = self._normalize_values(group_attrs, lo)
        hi_norm = self._normalize_values(group_attrs, hi)
        lo_norm[empty] = 1.0
        hi_norm[empty] = 0.0
        base = group_attrs * _ENTRIES_PER_ATTRIBUTE
        matrix[group_queries, base] = lo_norm
        matrix[group_queries, base + 1] = hi_norm
        return matrix
