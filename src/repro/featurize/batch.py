"""Columnar predicate-batch IR — the *compile* stage of featurization.

Every QFT encodes through one explicit two-stage pipeline, whether it
is handed a workload or a single query (``featurize(q)`` is the
one-query batch):

1. **compile** — normalize a sequence of queries into a
   :class:`PredicateBatch`: flat, parallel numpy arrays holding one row
   per simple predicate (owning query, attribute id, disjunction-branch
   id, operator code, literal).  Compilation walks the
   :mod:`repro.sql.ast` trees exactly once and performs all per-query
   validation (conjunctive-only contracts, attribute resolution), so the
   encode stage never touches python objects.
2. **encode** — a per-QFT ``_featurize_compiled(batch)`` that turns the
   columnar arrays into the full ``(n, feature_length)`` matrix with
   vectorized numpy kernels (grouped reductions over the predicate rows
   instead of per-query scalar math).

The IR is deliberately tiny: it is the *common denominator* of the four
paper QFTs.  Singular/Range ignore ``branch_index`` (their compile stage
rejects disjunctions first), Universal Conjunction Encoding groups rows
by ``(query_index, attr_index)``, and Limited Disjunction Encoding
additionally splits groups by ``branch_index`` before max/sum-merging
branch segments (Algorithm 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.sql.ast import Op

__all__ = [
    "PredicateBatch",
    "CompiledPlan",
    "stitch_plans",
    "OP_CODES",
    "OP_EQ",
    "OP_NE",
    "OP_LT",
    "OP_LE",
    "OP_GT",
    "OP_GE",
]

#: Stable integer codes for the six simple-predicate operators.
OP_EQ, OP_NE, OP_LT, OP_LE, OP_GT, OP_GE = range(6)

#: :class:`~repro.sql.ast.Op` -> integer op code.
OP_CODES = {
    Op.EQ: OP_EQ,
    Op.NE: OP_NE,
    Op.LT: OP_LT,
    Op.LE: OP_LE,
    Op.GT: OP_GT,
    Op.GE: OP_GE,
}


@dataclass(frozen=True)
class PredicateBatch:
    """Columnar normal form of a batch of queries' WHERE clauses.

    All predicate arrays are parallel (one entry per simple predicate,
    in compile order, i.e. query-major).
    """

    #: Number of compiled queries (rows of the encoded matrix).
    n_queries: int
    #: Attribute order of the owning featurizer's feature space.
    attributes: tuple[str, ...]
    #: Owning query of each predicate, in ``range(n_queries)``.
    query_index: np.ndarray
    #: Attribute id of each predicate (position in :attr:`attributes`).
    attr_index: np.ndarray
    #: Disjunction-branch id within ``(query, attribute)``; all zero for
    #: conjunctive compiles.
    branch_index: np.ndarray
    #: Operator code of each predicate (see :data:`OP_CODES`).
    op_code: np.ndarray
    #: Comparison literal of each predicate.
    value: np.ndarray
    #: Global compile-order position of each predicate.  Set-based
    #: consumers (the MSCN input builder) use it to restore each
    #: query's predicate order after grouped encoding.
    position: np.ndarray

    @classmethod
    def from_lists(cls, n_queries: int, attributes: Sequence[str],
                   query_index: Sequence[int], attr_index: Sequence[int],
                   branch_index: Sequence[int], op_code: Sequence[int],
                   value: Sequence[float]) -> "PredicateBatch":
        """Build a batch from the parallel python lists a compile loop fills."""
        return cls(
            n_queries=n_queries,
            attributes=tuple(attributes),
            query_index=np.asarray(query_index, dtype=np.int64),
            attr_index=np.asarray(attr_index, dtype=np.int64),
            branch_index=np.asarray(branch_index, dtype=np.int64),
            op_code=np.asarray(op_code, dtype=np.int64),
            value=np.asarray(value, dtype=np.float64),
            position=np.arange(len(query_index), dtype=np.int64),
        )

    @property
    def n_predicates(self) -> int:
        """Total number of compiled simple predicates."""
        return int(self.query_index.size)

    def __post_init__(self) -> None:
        sizes = {self.query_index.size, self.attr_index.size,
                 self.branch_index.size, self.op_code.size,
                 self.value.size, self.position.size}
        if len(sizes) != 1:
            raise ValueError(
                f"predicate arrays must be parallel; got sizes {sorted(sizes)}"
            )


# ----------------------------------------------------------------------
# Shape plans — compile once, re-bind literals many times
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CompiledPlan:
    """The query-invariant part of a compiled batch for one query shape.

    A plan is the single-query :class:`PredicateBatch` structure of a
    shape — attribute ids, branch ids, op codes — plus the permutation
    from walk-order literal slots to compile-order predicate rows.
    :func:`stitch_plans` stamps plans out for a batch and gathers each
    query's literals into place: the encode stage then runs without
    re-walking a single AST.

    Built by :meth:`repro.featurize.base.Featurizer.compile_plan`; the
    serving layer keeps one on each cached prepared statement.
    """

    #: Feature-space attribute order the plan was compiled against.
    attributes: tuple[str, ...]
    #: Per-predicate attribute ids, compile order (one query's worth).
    attr_index: np.ndarray
    #: Per-predicate disjunction-branch ids, compile order.
    branch_index: np.ndarray
    #: Per-predicate operator codes, compile order.
    op_code: np.ndarray
    #: Gather permutation: compile slot -> walk-order literal index.
    perm: np.ndarray
    #: Number of walk-order literals per query (the statement's
    #: fingerprint literal count).
    n_literals: int

    @property
    def n_predicates(self) -> int:
        """Compiled predicate rows per query (≥ ``n_literals`` under DNF
        duplication, or fewer if a QFT drops rows)."""
        return int(self.attr_index.size)


def stitch_plans(plans: Sequence[CompiledPlan],
                 literal_rows: Sequence[np.ndarray]) -> PredicateBatch:
    """Stamp a *mixed-shape* batch out of per-query plans.

    ``plans[i]`` is query ``i``'s shape plan and ``literal_rows[i]`` its
    walk-order literal vector (its fingerprint literals); the plans may
    all differ.  The result equals what ``compile_batch`` would produce
    for the same queries — predicate rows are query-major, each query's
    rows in its plan's compile order — but is assembled purely from
    array concatenation: no AST is walked, and unlike one stamping pass
    per shape group, the whole batch pays a single stitching pass
    regardless of how many distinct shapes it mixes.  This is what lets
    plan reuse win on shape-diverse traffic (every micro-batch a mix of
    many parameterized statements), where per-group encodes would cost
    more than they save.

    All plans must target the same feature space (equal ``attributes``).
    """
    k = len(plans)
    if k != len(literal_rows):
        raise ValueError(
            f"plans/literal_rows must be parallel, got "
            f"{k}/{len(literal_rows)}")
    if k == 0:
        raise ValueError("cannot stitch an empty batch")
    attributes = plans[0].attributes
    for plan in plans:
        if plan.attributes != attributes:
            raise ValueError(
                "plans target different feature spaces "
                f"({plan.attributes} != {attributes})")
    values: list[np.ndarray] = []
    for plan, row in zip(plans, literal_rows):
        row = np.asarray(row, dtype=np.float64)
        if row.shape != (plan.n_literals,):
            raise ValueError(
                f"literal row of shape {row.shape} for a plan with "
                f"{plan.n_literals} literals")
        values.append(row[plan.perm])
    counts = np.fromiter((plan.n_predicates for plan in plans),
                         dtype=np.int64, count=k)
    total = int(counts.sum())
    if total:
        attr_index = np.concatenate([plan.attr_index for plan in plans])
        branch_index = np.concatenate([plan.branch_index for plan in plans])
        op_code = np.concatenate([plan.op_code for plan in plans])
        value = np.concatenate(values)
    else:
        attr_index = np.empty(0, dtype=np.int64)
        branch_index = np.empty(0, dtype=np.int64)
        op_code = np.empty(0, dtype=np.int64)
        value = np.empty(0, dtype=np.float64)
    return PredicateBatch(
        n_queries=k,
        attributes=attributes,
        query_index=np.repeat(np.arange(k, dtype=np.int64), counts),
        attr_index=attr_index,
        branch_index=branch_index,
        op_code=op_code,
        value=value,
        position=np.arange(total, dtype=np.int64),
    )
