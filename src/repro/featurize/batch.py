"""Grouped columnar predicate-batch IR — the *compile* stage of featurization.

Every QFT encodes through one explicit two-stage pipeline, whether it
is handed a workload or a single query (``featurize(q)`` is the
one-query batch):

1. **compile** — normalize a sequence of queries into a
   :class:`PredicateBatch`: flat numpy arrays holding one row per simple
   predicate (attribute id, operator code, literal), already sorted by
   (query, attribute, disjunction branch), plus the boundaries of those
   groups.  Compilation walks the :mod:`repro.sql.ast` trees exactly
   once and performs all per-query validation (conjunctive-only
   contracts, attribute resolution), so the encode stage never touches
   python objects.
2. **encode** — a per-QFT ``_featurize_compiled(batch)`` that turns the
   grouped arrays into the full ``(n, feature_length)`` matrix with
   vectorized numpy kernels: grouped ``reduceat`` reductions over the
   group boundaries the compile stage emitted, never a sort.

The IR is deliberately tiny: it is the *common denominator* of the four
paper QFTs.  Two levels of grouping cover them all:

* a **segment** is one predicated (query, attribute) pair — the unit
  Singular and Range Predicate Encoding fold and Universal Conjunction
  Encoding writes into its attribute's feature-vector segment;
* a **branch group** is one disjunction branch of a segment — a
  conjunction of same-attribute predicates.  Conjunctive compiles emit
  one branch per segment; Limited Disjunction Encoding encodes each
  branch and max/sum-merges a segment's branches (Algorithm 2).

Grouping depends only on a statement's structure, never on its
literals, so :meth:`~repro.featurize.base.Featurizer.compile_plan`
stores it once per statement (:class:`CompiledPlan`) and
:func:`stitch_plans` only concatenates plans and offsets their
boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from repro.sql.ast import Op, SimplePredicate

__all__ = [
    "PredicateBatch",
    "BatchBuilder",
    "CompiledPlan",
    "stitch_plans",
    "exclusive_offsets",
    "ragged_positions",
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
    """Grouped columnar normal form of a batch of queries' WHERE clauses.

    Predicate rows are sorted by (query, attribute, branch) and keep
    compile order inside a branch.  Branch groups and segments are
    contiguous runs of rows, described by their start offsets.
    """

    #: Number of compiled queries (rows of the encoded matrix).
    n_queries: int
    #: Attribute order of the owning featurizer's feature space.
    attributes: tuple[str, ...]
    #: Attribute id of each predicate row (position in :attr:`attributes`).
    attr_index: np.ndarray
    #: Operator code of each predicate row (see :data:`OP_CODES`).
    op_code: np.ndarray
    #: Comparison literal of each predicate row.
    value: np.ndarray
    #: First predicate row of each branch group.
    group_start: np.ndarray
    #: First branch group of each segment (predicated query, attribute).
    segment_start: np.ndarray
    #: Owning query of each segment, in ``range(n_queries)``.
    segment_query: np.ndarray
    #: Attribute id of each segment.
    segment_attr: np.ndarray

    @property
    def n_predicates(self) -> int:
        """Total number of compiled simple predicates."""
        return int(self.value.size)

    @property
    def segment_rows(self) -> np.ndarray:
        """First predicate row of each segment."""
        return self.group_start[self.segment_start]

    @property
    def has_branches(self) -> bool:
        """Whether some segment has more than one branch group."""
        return self.group_start.size != self.segment_start.size

    def group_of_rows(self) -> np.ndarray:
        """Branch-group id of each predicate row (groups are non-empty)."""
        gid = np.zeros(self.value.size, dtype=np.int64)
        gid[self.group_start[1:]] = 1
        return gid.cumsum()

    def __post_init__(self) -> None:
        rows = {self.attr_index.size, self.op_code.size, self.value.size}
        segments = {self.segment_start.size, self.segment_query.size,
                    self.segment_attr.size}
        if len(rows) != 1 or len(segments) != 1:
            raise ValueError(
                "predicate and segment arrays must be parallel; got row "
                f"sizes {sorted(rows)} and segment sizes {sorted(segments)}")


class BatchBuilder:
    """Collects a compile loop's output in grouped order.

    A compile loop adds each query with :meth:`add_query`, in query
    order, handing over its predicated attributes in feature-space
    order; the rows then come out already sorted by (query, attribute,
    branch).
    """

    def __init__(self, attributes: Sequence[str]) -> None:
        self._attributes = tuple(attributes)
        self._attr_index: list[int] = []
        self._op_code: list[int] = []
        self._value: list[float] = []
        self._group_start: list[int] = []
        self._segment_start: list[int] = []
        self._segment_query: list[int] = []
        self._segment_attr: list[int] = []

    def add_query(self, query: int, segments: Iterable[
            tuple[int, Iterable[Iterable[SimplePredicate]]]]) -> None:
        """Add query ``query``'s segments: ``(attr_id, branches)`` pairs
        in ascending ``attr_id``, each branch a non-empty conjunction."""
        attr_index = self._attr_index
        op_code = self._op_code
        value = self._value
        group_start = self._group_start
        for attr_id, branches in segments:
            self._segment_start.append(len(group_start))
            self._segment_query.append(query)
            self._segment_attr.append(attr_id)
            first_row = len(value)
            for branch in branches:
                group_start.append(len(value))
                for predicate in branch:
                    op_code.append(OP_CODES[predicate.op])
                    value.append(float(predicate.value))
            attr_index.extend([attr_id] * (len(value) - first_row))

    def build(self, n_queries: int) -> PredicateBatch:
        """The grouped batch of everything added so far."""
        return PredicateBatch(
            n_queries=n_queries,
            attributes=self._attributes,
            attr_index=np.array(self._attr_index, dtype=np.int64),
            op_code=np.array(self._op_code, dtype=np.int64),
            value=np.array(self._value, dtype=np.float64),
            group_start=np.array(self._group_start, dtype=np.int64),
            segment_start=np.array(self._segment_start, dtype=np.int64),
            segment_query=np.array(self._segment_query, dtype=np.int64),
            segment_attr=np.array(self._segment_attr, dtype=np.int64),
        )


# ----------------------------------------------------------------------
# Statement plans — compile once, re-bind literals many times
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CompiledPlan:
    """The literal-independent part of one statement's compiled batch.

    A plan is the statement's one-query :class:`PredicateBatch`
    structure — row attribute ids and op codes, branch-group and segment
    boundaries, segment attribute ids — plus the permutation from
    walk-order literal slots to the grouped predicate rows.
    :func:`stitch_plans` stamps plans out for a batch and gathers each
    query's literals into place: the encode stage then runs without
    re-walking an AST or re-deriving a group.

    Built by :meth:`repro.featurize.base.Featurizer.compile_plan`; the
    serving layer keeps one on each cached prepared statement.
    """

    #: Feature-space attribute order the plan was compiled against.
    attributes: tuple[str, ...]
    #: Per-row attribute ids, grouped order (one query's worth).
    attr_index: np.ndarray
    #: Per-row operator codes, grouped order.
    op_code: np.ndarray
    #: Gather permutation: predicate row -> walk-order literal index.
    perm: np.ndarray
    #: First row of each branch group.
    group_start: np.ndarray
    #: First branch group of each segment.
    segment_start: np.ndarray
    #: Attribute id of each segment.
    segment_attr: np.ndarray
    #: Number of walk-order literals per query (the statement's
    #: fingerprint literal count).
    n_literals: int

    @property
    def sizes(self) -> tuple[int, int, int, int]:
        """Literals, predicate rows, branch groups and segments (rows
        exceed literals under DNF duplication)."""
        return (self.n_literals, self.perm.size, self.group_start.size,
                self.segment_start.size)

    @classmethod
    def from_batch(cls, batch: PredicateBatch,
                   n_literals: int) -> "CompiledPlan":
        """The plan of a one-query batch compiled from a template whose
        literals are their walk-order slot indices.

        The arrays are made read-only: every batch stamped from the plan
        shares them, and a cached plan must never change.
        """
        plan = cls(
            attributes=batch.attributes,
            attr_index=batch.attr_index,
            op_code=batch.op_code,
            perm=batch.value.astype(np.int64),
            group_start=batch.group_start,
            segment_start=batch.segment_start,
            segment_attr=batch.segment_attr,
            n_literals=n_literals,
        )
        for array in (plan.attr_index, plan.op_code, plan.perm,
                      plan.group_start, plan.segment_start,
                      plan.segment_attr):
            array.setflags(write=False)
        return plan


def exclusive_offsets(sizes: np.ndarray) -> np.ndarray:
    """Start offset of each run of ``sizes`` laid end to end (along
    the first axis)."""
    offsets = sizes.cumsum(axis=0)
    offsets -= sizes
    return offsets


def ragged_positions(starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """``starts[s] + c`` for every ``c < widths[s]``, runs end to end.

    The index of a ragged layout: run ``s`` covers ``widths[s]``
    consecutive positions from ``starts[s]``.
    """
    ends = widths.cumsum()
    shift = starts - ends + widths
    return shift.repeat(widths) + np.arange(int(ends[-1]) if ends.size else 0)


def stitch_plans(plans: Sequence[CompiledPlan],
                 literal_rows: Sequence[Sequence[float]]) -> PredicateBatch:
    """Stamp a *mixed-shape* batch out of per-query plans.

    ``plans[i]`` is query ``i``'s plan and ``literal_rows[i]`` its
    walk-order literal vector (its fingerprint literals); the plans may
    all differ.  The result equals what ``compile_batch`` would produce
    for the same queries, but is assembled purely from array
    concatenation: each plan's rows and boundaries are laid end to end
    and the boundaries shifted by the rows and groups before them, so
    the whole batch pays one stitching pass however many distinct
    shapes it mixes.

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
    for plan, row in zip(plans, literal_rows):
        # Plans of one featurizer share its attribute tuple object, so
        # the identity test settles the common case without comparing
        # every name.
        if plan.attributes is not attributes \
                and plan.attributes != attributes:
            raise ValueError(
                "plans target different feature spaces "
                f"({plan.attributes} != {attributes})")
        if len(row) != plan.n_literals:
            raise ValueError(
                f"literal row of length {len(row)} for a plan with "
                f"{plan.n_literals} literals")
    if k == 1:
        plan = plans[0]
        return PredicateBatch(
            n_queries=1, attributes=attributes,
            attr_index=plan.attr_index, op_code=plan.op_code,
            value=np.asarray(literal_rows[0], dtype=np.float64)[plan.perm],
            group_start=plan.group_start,
            segment_start=plan.segment_start,
            segment_query=np.zeros(plan.segment_start.size, dtype=np.int64),
            segment_attr=plan.segment_attr,
        )
    # Per plan: literals, rows, branch groups, segments.
    sizes = np.array([plan.sizes for plan in plans], dtype=np.int64)
    offsets = exclusive_offsets(sizes)
    literals = np.fromiter(chain.from_iterable(literal_rows),
                           dtype=np.float64,
                           count=int(offsets[-1, 0] + sizes[-1, 0]))
    perm = np.concatenate([plan.perm for plan in plans])
    perm += np.repeat(offsets[:, 0], sizes[:, 1])
    group_start = np.concatenate([plan.group_start for plan in plans])
    group_start += np.repeat(offsets[:, 1], sizes[:, 2])
    segment_start = np.concatenate([plan.segment_start for plan in plans])
    segment_start += np.repeat(offsets[:, 2], sizes[:, 3])
    return PredicateBatch(
        n_queries=k,
        attributes=attributes,
        attr_index=np.concatenate([plan.attr_index for plan in plans]),
        op_code=np.concatenate([plan.op_code for plan in plans]),
        value=literals[perm],
        group_start=group_start,
        segment_start=segment_start,
        segment_query=np.repeat(np.arange(k, dtype=np.int64), sizes[:, 3]),
        segment_attr=np.concatenate([plan.segment_attr for plan in plans]),
    )
