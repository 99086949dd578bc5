"""Reference encoders of the paper's QFTs — the test oracle.

``repro.featurize`` encodes every QFT with one vectorized compile →
encode kernel (``_featurize_compiled``), and ``featurize(q)`` is its
one-query batch.  This module is the per-query, per-predicate
transcription of the paper's definitions that the bitwise-equivalence
suites compare those kernels against:

* Singular Predicate Encoding (Section 2.1.1) — :func:`singular`;
* Range Predicate Encoding (Section 3.1) — :func:`range_encoding`;
* Universal Conjunction Encoding (Algorithm 1) —
  :func:`universal_conjunction`, with the per-attribute body
  :func:`attribute_segment` and the uniformity selectivity appendix
  :func:`uniform_selectivity` (the algorithm's gray lines);
* Limited Disjunction Encoding (Algorithm 2) —
  :func:`limited_disjunction`;
* the join compositions and MSCN's qft-mode set rows built from them;
* statement shapes (:func:`query_shape`) and templates
  (:func:`plan_template`), by which tests key and compile the serving
  leg's plans for hand-built queries.

The functions are plain code over a *fitted* featurizer: they read its
statistics and partition geometry (``stats``, ``partitions``,
``is_exact``, the equi-depth ``_boundaries``/``_uniques``) and never
call its encode kernels.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from repro.data.stats import ColumnStats
from repro.featurize import (
    ConjunctiveEncoding,
    DisjunctionEncoding,
    EquiDepthConjunctiveEncoding,
    GlobalJoinFeaturizer,
    JoinQueryFeaturizer,
    RangeEncoding,
    SingularEncoding,
)
from repro.featurize.selectivity import Interval, fold_conjunction
from repro.sql.ast import (
    And,
    BoolExpr,
    LikePredicate,
    Op,
    Or,
    Query,
    SimplePredicate,
    StringPredicate,
    is_conjunctive,
    iter_simple_predicates,
    to_compound_form,
)
from repro.sql.executor import per_table_selections
from repro.sql.parser import make_template

_HALF = 0.5

#: Singular Predicate Encoding: operator -> (=, >, <) indicator bits.
_OP_BITS = {
    Op.EQ: (1.0, 0.0, 0.0),
    Op.GT: (0.0, 1.0, 0.0),
    Op.LT: (0.0, 0.0, 1.0),
    Op.GE: (1.0, 1.0, 0.0),
    Op.LE: (1.0, 0.0, 1.0),
    Op.NE: (0.0, 1.0, 1.0),
}


def featurize(featurizer, query) -> np.ndarray:
    """Reference feature vector of ``query`` (or a bare WHERE, or None)."""
    if isinstance(featurizer, GlobalJoinFeaturizer):
        return _global_join(featurizer, query)
    if isinstance(featurizer, JoinQueryFeaturizer):
        return _local_join(featurizer, query)
    expr = featurizer.extract_expr(query)
    if isinstance(featurizer, DisjunctionEncoding):
        return limited_disjunction(featurizer, expr)
    if isinstance(featurizer, ConjunctiveEncoding):
        return universal_conjunction(featurizer, expr)
    if isinstance(featurizer, RangeEncoding):
        return range_encoding(featurizer, expr)
    if isinstance(featurizer, SingularEncoding):
        return singular(featurizer, expr)
    raise TypeError(f"no reference encoder for {type(featurizer).__name__}")


def matrix(featurizer, queries) -> np.ndarray:
    """Reference feature vectors of ``queries``, stacked row by row."""
    rows = [featurize(featurizer, query) for query in queries]
    if not rows:
        return np.empty((0, featurizer.feature_length), dtype=np.float64)
    return np.stack(rows)


def resolve(featurizer, predicate) -> str:
    """Unqualified attribute of ``predicate`` (``KeyError`` if uncovered)."""
    attr = predicate.attribute
    prefix, dot, rest = attr.partition(".")
    if dot and prefix == featurizer.table_name:
        attr = rest
    if attr not in featurizer.attributes:
        raise KeyError(
            f"predicate on unknown attribute {predicate.attribute!r} "
            f"(table {featurizer.table_name!r})"
        )
    return attr


# ----------------------------------------------------------------------
# Singular and Range Predicate Encoding
# ----------------------------------------------------------------------

def singular(featurizer: SingularEncoding, expr: BoolExpr | None
             ) -> np.ndarray:
    """Three operator bits plus the normalised literal per attribute; the
    first predicate on an attribute wins, later ones are dropped."""
    vector = np.zeros(featurizer.feature_length, dtype=np.float64)
    if expr is None:
        return vector
    if not is_conjunctive(expr):
        raise featurizer._disjunction_error(expr)
    offsets = {attr: i * 4 for i, attr in enumerate(featurizer.attributes)}
    encoded: set[str] = set()
    for predicate in iter_simple_predicates(expr):
        attr = resolve(featurizer, predicate)
        if attr in encoded:
            continue
        encoded.add(attr)
        base = offsets[attr]
        vector[base:base + 3] = _OP_BITS[predicate.op]
        vector[base + 3] = featurizer.stats(attr).normalize(predicate.value)
    return vector


def range_encoding(featurizer: RangeEncoding, expr: BoolExpr | None
                   ) -> np.ndarray:
    """One normalised closed range per attribute; ``<>`` is dropped and an
    empty intersection encodes as ``[1, 0]``."""
    vector = np.empty(featurizer.feature_length, dtype=np.float64)
    vector[0::2] = 0.0
    vector[1::2] = 1.0
    if expr is None:
        return vector
    if not is_conjunctive(expr):
        raise featurizer._disjunction_error(expr)
    per_attribute: dict[str, list] = {}
    for predicate in iter_simple_predicates(expr):
        attr = resolve(featurizer, predicate)
        if predicate.op is Op.NE:
            continue
        per_attribute.setdefault(attr, []).append(predicate)
    offsets = {attr: i * 2 for i, attr in enumerate(featurizer.attributes)}
    for attr, predicates in per_attribute.items():
        stats = featurizer.stats(attr)
        interval = fold_conjunction(predicates, stats)
        base = offsets[attr]
        if interval.is_empty:
            vector[base] = 1.0
            vector[base + 1] = 0.0
        else:
            vector[base] = stats.normalize(interval.lo)
            vector[base + 1] = stats.normalize(interval.hi)
    return vector


# ----------------------------------------------------------------------
# Algorithm 1: Universal Conjunction Encoding
# ----------------------------------------------------------------------

def universal_conjunction(featurizer: ConjunctiveEncoding,
                          expr: BoolExpr | None) -> np.ndarray:
    """Algorithm 1 over a conjunctive WHERE expression."""
    if expr is not None and not is_conjunctive(expr):
        raise featurizer._disjunction_error(expr)
    per_attribute: dict[str, list[SimplePredicate]] = {}
    if expr is not None:
        for predicate in iter_simple_predicates(expr):
            attr = resolve(featurizer, predicate)
            per_attribute.setdefault(attr, []).append(predicate)
    return np.concatenate([
        attribute_segment(featurizer, attr, per_attribute.get(attr, ()))
        for attr in featurizer.attributes
    ])


def attribute_segment(featurizer: ConjunctiveEncoding, attribute: str,
                      predicates) -> np.ndarray:
    """One attribute's conjunction as its vector segment (the
    per-attribute body of Algorithm 1, which Algorithm 2 runs once per
    disjunction branch)."""
    predicates = list(predicates)
    exact = featurizer.is_exact(attribute)
    entries = np.ones(featurizer.partitions(attribute), dtype=np.float64)
    for predicate in predicates:
        _apply(featurizer, entries, attribute, predicate, exact)
    if not featurizer.attr_selectivity:
        return entries
    stats = featurizer.stats(attribute)
    if predicates:
        selectivity = uniform_selectivity(
            fold_conjunction(predicates, stats), stats)
    else:
        selectivity = 1.0
    return np.concatenate([entries, [selectivity]])


def partition_index(featurizer: ConjunctiveEncoding, attribute: str,
                    value: float) -> int:
    """Zero-based partition of ``value`` (Algorithm 1, line 4); ``-1`` and
    ``n_A`` are the virtual partitions below and above the domain."""
    stats = featurizer.stats(attribute)
    n_attr = featurizer.partitions(attribute)
    if value < stats.min_value:
        return -1
    if value > stats.max_value:
        return n_attr
    if isinstance(featurizer, EquiDepthConjunctiveEncoding):
        boundaries = featurizer._boundaries[attribute]
        return int(np.searchsorted(boundaries, value, side="left"))
    idx = math.floor((value - stats.min_value) / stats.domain_size * n_attr)
    return min(max(idx, 0), n_attr - 1)


def partition_value(featurizer: ConjunctiveEncoding, attribute: str,
                    idx: int) -> float:
    """The single value an *exact* partition covers."""
    if isinstance(featurizer, EquiDepthConjunctiveEncoding):
        return float(featurizer._uniques[attribute][idx])
    return featurizer.stats(attribute).min_value + idx


def _apply(featurizer: ConjunctiveEncoding, entries: np.ndarray,
           attribute: str, predicate: SimplePredicate, exact: bool) -> None:
    """Lower entries according to one predicate (Algorithm 1, lines 5-16).

    For exact partitions the single covered value is known, so the
    boundary partition resolves to 0 or 1 instead of ½ (the refinement
    at the end of Section 3.2).
    """
    n_attr = entries.size
    idx = partition_index(featurizer, attribute, predicate.value)
    in_domain = 0 <= idx < n_attr
    value = float(predicate.value)
    op = predicate.op
    u = (partition_value(featurizer, attribute, idx)
         if exact and in_domain else None)

    if op is Op.EQ:
        # Entries may only decrease (Algorithm 1, line 5): a previous
        # predicate that zeroed the matching partition must win.
        current = entries[idx] if in_domain else 0.0
        entries[:] = 0.0
        if in_domain:
            if u is None:
                entries[idx] = min(current, _HALF)
            elif u == value:
                entries[idx] = current
        return
    if op is Op.NE:
        if in_domain:
            if u is None:
                entries[idx] = min(entries[idx], _HALF)
            elif u == value:
                entries[idx] = 0.0
        return
    if op in (Op.GT, Op.GE):
        if idx >= n_attr:
            entries[:] = 0.0
            return
        if idx < 0:
            return
        entries[:idx] = 0.0
        if u is None:
            entries[idx] = min(entries[idx], _HALF)
        elif (u < value) or (op is Op.GT and u == value):
            entries[idx] = 0.0
        return
    if op in (Op.LT, Op.LE):
        if idx < 0:
            entries[:] = 0.0
            return
        if idx >= n_attr:
            return
        entries[idx + 1:] = 0.0
        if u is None:
            entries[idx] = min(entries[idx], _HALF)
        elif (u > value) or (op is Op.LT and u == value):
            entries[idx] = 0.0
        return
    raise ValueError(f"unhandled operator {op}")


def uniform_selectivity(interval: Interval, stats: ColumnStats) -> float:
    """Fraction of the attribute's domain qualifying under uniformity.

    Algorithm 1's gray lines: the qualifying domain size divided by the
    total domain size ``max(A) - min(A) + 1`` — a Selinger-style
    estimate, *not* a data-driven one.  Integral domains count
    qualifying integers (excluding ``<>`` values inside the interval);
    continuous domains use interval length (exclusions have measure
    zero), and an equality collapse is credited ``1 / distinct_count``.
    """
    if interval.is_empty:
        return 0.0
    if stats.is_integral:
        lo = math.ceil(interval.lo)
        hi = math.floor(interval.hi)
        if lo > hi:
            return 0.0
        excluded_inside = sum(
            1 for v in interval.excluded
            if lo <= v <= hi and float(v).is_integer()
        )
        qualifying = (hi - lo + 1) - excluded_inside
        return max(qualifying, 0) / stats.domain_size
    span = stats.max_value - stats.min_value
    if span <= 0:
        return 1.0
    width = interval.hi - interval.lo
    if width <= 0:
        return 1.0 / max(stats.distinct_count, 1)
    return min(width / span, 1.0)


# ----------------------------------------------------------------------
# Algorithm 2: Limited Disjunction Encoding
# ----------------------------------------------------------------------

def limited_disjunction(featurizer: DisjunctionEncoding,
                        expr: BoolExpr | None) -> np.ndarray:
    """Algorithm 2: per attribute, Algorithm 1 on every disjunction
    branch of its compound predicate, merged entry-wise (max, or the
    clipped-sum ablation)."""
    if expr is None:
        return universal_conjunction(featurizer, None)
    compound = to_compound_form(_strip_table_prefix(featurizer, expr))
    for branches in compound.values():
        resolve(featurizer, branches[0][0])
    merge = featurizer.get_config()["merge"]
    segments = []
    for attr in featurizer.attributes:
        branches = compound.get(attr)
        if not branches:
            segments.append(attribute_segment(featurizer, attr, ()))
            continue
        merged = attribute_segment(featurizer, attr, branches[0])
        for branch in branches[1:]:
            _merge_branches(merged, attribute_segment(featurizer, attr,
                                                      branch), merge)
        segments.append(merged)
    return np.concatenate(segments)


def _merge_branches(merged: np.ndarray, branch: np.ndarray,
                    merge: str) -> None:
    if merge == "max":
        # Entry-wise max: disjunction can only widen (Alg. 2, l. 6).
        np.maximum(merged, branch, out=merged)
    else:
        merged += branch
        np.minimum(merged, 1.0, out=merged)


def _strip_table_prefix(featurizer, expr: BoolExpr) -> BoolExpr:
    """``expr`` with the featurizer's own table prefix removed."""
    if isinstance(expr, (And, Or)):
        return type(expr)([_strip_table_prefix(featurizer, child)
                           for child in expr.children])
    prefix = featurizer.table_name + "."
    if expr.attribute.startswith(prefix):
        return replace(expr, attribute=expr.attribute[len(prefix):])
    return expr


# ----------------------------------------------------------------------
# Compositions: joins and MSCN set rows
# ----------------------------------------------------------------------

def _local_join(featurizer: JoinQueryFeaturizer, query) -> np.ndarray:
    if set(query.tables) != set(featurizer.tables):
        raise ValueError(
            f"query joins {query.tables} but this featurizer covers "
            f"{featurizer.tables}"
        )
    selections = per_table_selections(query, featurizer._schema)
    return np.concatenate([
        featurize(featurizer.featurizer_for(table), selections[table])
        for table in featurizer.tables
    ])


def _global_join(featurizer: GlobalJoinFeaturizer, query) -> np.ndarray:
    schema = featurizer._schema
    selections = per_table_selections(query, schema)
    bitmap = np.asarray([1.0 if table in query.tables else 0.0
                         for table in schema.table_names])
    segments = [bitmap]
    for table, sub in featurizer._featurizers.items():
        segments.append(featurize(sub, selections.get(table)))
    return np.concatenate(segments)


def mscn_qft_rows(builder, query) -> list[np.ndarray]:
    """MSCN qft-mode predicate set of one query (Section 4.2): one
    element per (table, attribute) in FROM order and ``to_compound_form``
    order, labelled by the attribute's one-hot id and carrying its
    Algorithm 2 (max-merged) segment."""
    selections = per_table_selections(query, builder._schema)
    n_attrs = len(builder._attributes)
    rows: list[np.ndarray] = []
    for table_name in query.tables:
        expr = selections.get(table_name)
        if expr is None:
            continue
        featurizer = builder._featurizers[table_name]
        for attr, branches in to_compound_form(expr).items():
            name = attr.partition(".")[2] if "." in attr else attr
            merged = attribute_segment(featurizer, name, branches[0])
            for branch in branches[1:]:
                np.maximum(merged, attribute_segment(featurizer, name, branch),
                           out=merged)
            vector = np.zeros(builder.predicate_dim)
            vector[builder._attr_index[(table_name, name)]] = 1.0
            vector[n_attrs:n_attrs + merged.size] = merged
            rows.append(vector)
    return rows


# ----------------------------------------------------------------------
# Statement shapes and templates
# ----------------------------------------------------------------------

def query_shape(expr: BoolExpr | None) -> tuple[tuple, np.ndarray]:
    """Return ``(shape_key, literals)`` of a WHERE expression.

    The *shape* of a query is its boolean structure with every numeric
    literal masked out: attribute names, operators, and the AND/OR tree
    stay; comparison values do not.  Two queries with equal shape keys
    compile to byte-identical predicate-batch structure and can
    therefore share one compiled plan, re-binding only their literal
    vectors — the AST counterpart of a SQL fingerprint.

    ``literals`` holds the masked values in AST walk order (depth-first,
    left-to-right — the order :func:`~repro.sql.ast.iter_simple_predicates`
    yields).  String and LIKE literals are *not* masked: they stay part
    of the key.
    """
    literals: list[float] = []

    def walk(node: BoolExpr) -> tuple:
        if isinstance(node, SimplePredicate):
            literals.append(float(node.value))
            return ("p", node.attribute, node.op.value)
        if isinstance(node, StringPredicate):
            return ("s", node.attribute, node.op.value, node.value)
        if isinstance(node, LikePredicate):
            return ("like", node.attribute, node.prefix)
        if isinstance(node, And):
            return ("and",) + tuple(walk(c) for c in node.children)
        if isinstance(node, Or):
            return ("or",) + tuple(walk(c) for c in node.children)
        raise TypeError(f"not a boolean expression: {type(node).__name__}")

    if expr is None:
        return ("none",), np.empty(0, dtype=np.float64)
    key = walk(expr)
    return key, np.asarray(literals, dtype=np.float64)


def plan_template(expr: BoolExpr | None) -> tuple[BoolExpr | None, int]:
    """``(template, n_literals)``: ``expr`` as ``compile_plan`` takes it.

    The template is ``expr`` with each numeric literal replaced by its
    walk-order index (:func:`~repro.sql.parser.make_template`), which is
    what ``parse_template`` builds from the statement's fingerprint key.
    """
    if expr is None:
        return None, 0
    _, literals = query_shape(expr)
    template = make_template(Query.single_table("t", expr),
                             tuple(literals.tolist()))
    assert template is not None, expr
    return template.where, len(literals)
