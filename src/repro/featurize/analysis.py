"""Featurization-quality analysis tools.

Definition 3.1 calls a featurization *lossless* when a query with the
same result can be reconstructed from the feature vector.  This module
makes that definition operational:

* :func:`decode` — the inverse function of Definition 3.1: given a
  feature vector produced by Universal Conjunction / Limited Disjunction
  Encoding at **exact resolution** (one partition per integer value), it
  reconstructs a conjunctive query with the same result set.
* :func:`is_lossless_for` — whether a fitted encoding is at exact
  resolution for every attribute (the regime of Lemma 3.2's limit).
* :func:`collision_report` — quantifies the information loss of *any*
  featurizer over a workload: queries mapping to the same vector with
  different cardinalities violate the determinism requirement of the
  paper's Equation 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.featurize.conjunctive import ConjunctiveEncoding
from repro.sql.ast import And, BoolExpr, Op, Query, SimplePredicate

__all__ = ["decode", "is_lossless_for", "collision_report", "CollisionReport"]


def is_lossless_for(featurizer: ConjunctiveEncoding) -> bool:
    """True iff every attribute is encoded at one partition per value."""
    return all(featurizer.is_exact(attr) for attr in featurizer.attributes)


def decode(featurizer: ConjunctiveEncoding, vector: np.ndarray) -> Query:
    """Reconstruct a query with the same result set from a feature vector.

    This is the function whose existence Definition 3.1 demands.  It
    requires exact resolution (:func:`is_lossless_for`); below that,
    partitions aggregate several values and no inverse can exist in
    general (that *is* the information loss).

    The reconstruction per attribute: the entries equal to 1 are the
    qualifying values; they are expressed as a closed range over the
    qualifying span plus ``<>`` predicates for interior gaps — always a
    plain conjunction, even if the vector came from Limited Disjunction
    Encoding (at exact resolution a union of per-attribute predicates is
    again expressible as range + exclusions).
    """
    if not is_lossless_for(featurizer):
        inexact = [a for a in featurizer.attributes
                   if not featurizer.is_exact(a)]
        raise ValueError(
            "decode requires exact resolution (one partition per value); "
            f"inexact attributes: {inexact} — increase max_partitions"
        )
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != (featurizer.feature_length,):
        raise ValueError(
            f"vector has shape {vector.shape}, expected "
            f"({featurizer.feature_length},)"
        )
    predicates: list[SimplePredicate] = []
    slices = featurizer.attribute_slices()
    for attr_id, attr in enumerate(featurizer.attributes):
        segment = vector[slices[attr]]
        entries = segment[:featurizer.partitions(attr)]
        stats = featurizer.stats(attr)
        # Vectorized membership test on a constructed 0/1 indicator
        # array: the encoder wrote these entries as exact 0.0/1.0
        # constants (never computed), so `== 1.0` is representation-safe
        # here and np.isclose would only blur the contract.
        qualifying = np.nonzero(entries == 1.0)[0]  # repro: ignore[RPR102]
        if qualifying.size == entries.size:
            continue  # no predicate on this attribute
        if qualifying.size == 0:
            # Unsatisfiable: no value qualifies.
            predicates.append(SimplePredicate(attr, Op.LT, stats.min_value))
            continue
        # Partition index -> the single value it covers (the geometry
        # hook also used by Algorithm 1's exact refinement; correct for
        # both equal-width and equi-depth exact partitions).
        inside = np.arange(qualifying.min(), qualifying.max() + 1)
        gaps = np.setdiff1d(inside, qualifying)
        indices = np.concatenate(([qualifying.min(), qualifying.max()],
                                  gaps))
        values = featurizer._partition_values(
            np.full(indices.size, attr_id), indices)
        predicates.append(SimplePredicate(attr, Op.GE, float(values[0])))
        predicates.append(SimplePredicate(attr, Op.LE, float(values[1])))
        predicates.extend(SimplePredicate(attr, Op.NE, float(value))
                          for value in values[2:])
    where: BoolExpr | None
    if not predicates:
        where = None
    elif len(predicates) == 1:
        where = predicates[0]
    else:
        where = And(predicates)
    return Query.single_table(featurizer.table_name, where)


@dataclass(frozen=True)
class CollisionReport:
    """Information-loss measurement of a featurizer over a workload."""

    #: Number of queries inspected.
    total_queries: int
    #: Distinct feature vectors observed.
    distinct_vectors: int
    #: Queries sharing a vector with a different-cardinality query.
    colliding_queries: int
    #: Largest cardinality spread within one vector (max/min ratio).
    worst_spread: float

    @property
    def collision_rate(self) -> float:
        """Fraction of queries involved in a determinism violation."""
        if self.total_queries == 0:
            return 0.0
        return self.colliding_queries / self.total_queries


def collision_report(featurizer, workload) -> CollisionReport:
    """Measure Equation-4 violations of ``featurizer`` on ``workload``.

    Works with any vector featurizer (the four QFTs alike); the paper's
    argument is that lossy QFTs necessarily produce collisions on query
    classes they cannot represent, which caps achievable accuracy.  The
    workload is encoded with one ``featurize_batch`` call.
    """
    items = list(workload)
    matrix = featurizer.featurize_batch([item.query for item in items])
    buckets: dict[bytes, list[int]] = {}
    for row, item in zip(matrix, items):
        buckets.setdefault(row.tobytes(), []).append(item.cardinality)
    colliding = 0
    worst = 1.0
    for cards in buckets.values():
        if len(set(cards)) > 1:
            colliding += len(cards)
            worst = max(worst, max(cards) / max(min(cards), 1))
    return CollisionReport(
        total_queries=len(items),
        distinct_vectors=len(buckets),
        colliding_queries=colliding,
        worst_spread=worst,
    )
