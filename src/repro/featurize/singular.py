"""Singular Predicate Encoding (paper label: ``simple``).

The established baseline QFT from prior work (Section 2.1.1): for a table
with ``m`` attributes the feature vector has ``4 * m`` entries.  Each
attribute owns four entries — a 3-bit operator indicator over
``{=, >, <}`` and the min-max-normalised literal::

    A > 5  AND  B = 7   (m = 3)
    ->  [0,1,0, 0.27,   1,0,0, 0.15,   0,0,0, 0.0]
         ---A--------   ---B--------   -no pred.--

Non-strict and negated operators are expressed by setting two bits
(``>=`` sets ``=`` and ``>``; ``<>`` sets ``>`` and ``<``).

**Deliberate information loss** (this is what Section 3 analyses): only
one predicate per attribute fits.  When a query has ``k > 1`` predicates
on an attribute, the *first* one is kept and the other ``k - 1`` are
dropped — the feature vector can no longer distinguish a selective
many-predicate query from a permissive one-predicate query.
Disjunctions cannot be represented at all and raise
:class:`~repro.featurize.base.LosslessnessError`.
"""

from __future__ import annotations

import numpy as np

from repro.featurize.base import Featurizer, LosslessnessError
from repro.featurize.batch import OP_CODES, PredicateBatch
from repro.sql.ast import BoolExpr, Op, shape_sql

__all__ = ["SingularEncoding"]

#: Entries reserved per attribute: three operator bits plus the literal.
_ENTRIES_PER_ATTRIBUTE = 4

#: Operator -> (=, >, <) indicator bits.
_OP_BITS = {
    Op.EQ: (1.0, 0.0, 0.0),
    Op.GT: (0.0, 1.0, 0.0),
    Op.LT: (0.0, 0.0, 1.0),
    Op.GE: (1.0, 1.0, 0.0),
    Op.LE: (1.0, 0.0, 1.0),
    Op.NE: (0.0, 1.0, 1.0),
}

#: Op-code-indexed view of :data:`_OP_BITS` for the encode kernel.
_OP_BIT_TABLE = np.zeros((len(OP_CODES), 3), dtype=np.float64)
for _op, _code in OP_CODES.items():
    _OP_BIT_TABLE[_code] = _OP_BITS[_op]


class SingularEncoding(Featurizer):
    """Singular Predicate Encoding: 4 entries per attribute, 1 predicate each."""

    name = "simple"

    @property
    def feature_length(self) -> int:
        """Dimension of the produced feature vectors."""
        return _ENTRIES_PER_ATTRIBUTE * len(self.attributes)

    def _disjunction_error(self, expr: BoolExpr) -> LosslessnessError:
        return LosslessnessError(
            "Singular Predicate Encoding cannot represent disjunctions; "
            f"got: {shape_sql(expr)}"
        )

    def _featurize_compiled(self, batch: PredicateBatch) -> np.ndarray:
        matrix = np.zeros((batch.n_queries, self.feature_length),
                          dtype=np.float64)
        if batch.n_predicates == 0:
            return matrix
        # The first predicate per (query, attribute) wins; later ones
        # are dropped (Section 3's motivating failure case).  The
        # compile stage keeps predicate order inside a segment, so each
        # segment's first row is the survivor.
        first = batch.segment_rows
        queries = batch.segment_query
        base = batch.segment_attr * _ENTRIES_PER_ATTRIBUTE
        bits = _OP_BIT_TABLE[batch.op_code[first]]
        for offset in range(3):
            matrix[queries, base + offset] = bits[:, offset]
        matrix[queries, base + 3] = self._normalize_values(
            batch.segment_attr, batch.value[first])
        return matrix
