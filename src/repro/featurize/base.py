"""Featurizer interface shared by every QFT.

A featurizer is *fitted* to a table: it captures the attribute list and
per-attribute statistics (min/max/domain size), which define the geometry
of the feature space.  Featurization itself is then a pure function
``query -> numpy vector`` of fixed length — exactly the two-step mapping
of the paper's Equation 2.

All featurizers accept either a single-table :class:`~repro.sql.ast.Query`
or a bare boolean expression (a WHERE clause).  Attribute names may be
qualified (``forest.A7``); the table prefix is stripped during resolution.

Featurization is a two-stage **compile → encode** pipeline:
:meth:`Featurizer.compile_batch` normalizes a query sequence into the
columnar :class:`~repro.featurize.batch.PredicateBatch` IR, and each
QFT's ``_featurize_compiled`` kernel encodes the whole batch into an
``(n, feature_length)`` matrix.  That kernel is the QFT's only encoder:
:meth:`Featurizer.featurize` runs the same two stages on a one-query
batch.
"""

from __future__ import annotations

import abc
from typing import Iterable, Sequence, Union

import numpy as np

from repro import obs
from repro.data.stats import ColumnStats, TableStats
from repro.data.table import Table
from repro.featurize.batch import (
    BatchBuilder,
    CompiledPlan,
    PredicateBatch,
    stitch_plans,
)
from repro.featurize.selectivity import strict_step
from repro.sql.ast import (
    BoolExpr,
    Query,
    SimplePredicate,
    is_conjunctive,
    iter_simple_predicates,
    shape_sql,
)

__all__ = ["Featurizer", "LosslessnessError"]


class LosslessnessError(ValueError):
    """Raised when a QFT is asked to encode a query it cannot represent.

    The lossy encodings (Singular, Range) by design *silently* drop
    information for query classes the paper studies — that is the point of
    the comparison — but raise for queries entirely outside their contract
    (e.g. disjunctions), where a silent wrong answer would not be a
    featurization at all.
    """


class Featurizer(abc.ABC):
    """Base class of all query featurization techniques."""

    #: Paper label for plots ("simple", "range", "conjunctive", "complex").
    name: str = "abstract"

    def __init__(self, table: Union[Table, TableStats],
                 attributes: Sequence[str] | None = None) -> None:
        # A featurizer consumes only statistics, so a TableStats snapshot
        # works in place of the table itself (this is how persisted
        # estimators are reconstructed without the original data).
        snapshot = (table if isinstance(table, TableStats)
                    else TableStats.from_table(table))
        self._table_name = snapshot.name
        names = (list(attributes) if attributes is not None
                 else snapshot.column_names)
        if not names:
            raise ValueError("featurizer needs at least one attribute")
        missing = [n for n in names if n not in snapshot]
        if missing:
            raise KeyError(f"attributes {missing} not in table "
                           f"{snapshot.name!r}")
        self._attributes: tuple[str, ...] = tuple(names)
        self._attr_ids = {name: i for i, name in enumerate(names)}
        self._stats: dict[str, ColumnStats] = {
            name: snapshot.column_stats(name) for name in names
        }
        # Columnar statistics, aligned with the attribute order: the
        # vectorized encode kernels index these by attribute id instead
        # of doing per-predicate ColumnStats lookups.
        stats_list = [self._stats[name] for name in self._attributes]
        self._min_values = np.array([s.min_value for s in stats_list])
        self._max_values = np.array([s.max_value for s in stats_list])
        self._spans = self._max_values - self._min_values
        self._domain_sizes = np.array([s.domain_size for s in stats_list])
        self._integral = np.array([s.is_integral for s in stats_list],
                                  dtype=bool)
        self._distinct_counts = np.array(
            [s.distinct_count for s in stats_list], dtype=np.float64)
        self._steps = np.array([strict_step(s) for s in stats_list])

    @property
    def table_name(self) -> str:
        """Name of the table this featurizer was fitted to."""
        return self._table_name

    @property
    def attributes(self) -> tuple[str, ...]:
        """Attributes covered by the feature space, in vector order."""
        return self._attributes

    def stats(self, attribute: str) -> ColumnStats:
        """Statistics of ``attribute`` (``KeyError`` if uncovered)."""
        try:
            return self._stats[attribute]
        except KeyError:
            raise KeyError(
                f"attribute {attribute!r} is not covered by this featurizer "
                f"(table {self._table_name!r}, attributes {self._attributes})"
            ) from None

    def snapshot(self) -> TableStats:
        """The statistics snapshot this featurizer was fitted to."""
        return TableStats(name=self._table_name, columns=dict(self._stats))

    def get_config(self) -> dict:
        """Constructor parameters beyond the snapshot (for persistence).

        Subclasses with extra knobs (partition counts, selectivity
        appendix, merge operator) override this.
        """
        return {}

    @property
    @abc.abstractmethod
    def feature_length(self) -> int:
        """Dimension of the produced feature vectors."""

    def featurize(self, query: Query | BoolExpr | None) -> np.ndarray:
        """Encode a query (or bare WHERE expression) into a feature vector.

        The one-query batch: the same compile → encode stages
        :meth:`featurize_batch` runs, so row ``i`` of a batch equals
        ``featurize`` of query ``i`` bitwise.  Encoding a workload one
        query at a time pays the batch setup per query; callers with
        many queries use :meth:`featurize_batch`.

        Counted (``featurize.queries_total``) but deliberately *not*
        wrapped in a per-query span: span bookkeeping would rival the
        encode itself.  The traced surface is :meth:`featurize_batch`.
        """
        matrix = self._featurize_compiled(self.compile_batch([query]))
        self._check_encoded(matrix, 1)
        obs.get_registry().counter("featurize.queries_total").inc()
        return matrix[0]

    def featurize_batch(self, queries: Iterable[Query | BoolExpr | None]) -> np.ndarray:
        """Encode many queries into a ``(n, feature_length)`` matrix.

        This is the compile → encode pipeline: the queries are first
        normalized into the columnar :class:`PredicateBatch` IR (one
        pass over the ASTs, with all validation), then encoded in one
        vectorized step.  :meth:`featurize` is its ``n = 1`` case.

        When tracing is enabled the two stages emit ``featurize.compile``
        and ``featurize.encode`` child spans under ``featurize.batch``.
        """
        with obs.span("featurize.batch",
                      featurizer=type(self).__name__) as root:
            with obs.span("featurize.compile",
                          featurizer=type(self).__name__):
                batch = self.compile_batch(queries)
            if root is not None:
                root.set_attribute("n_queries", batch.n_queries)
            with obs.span("featurize.encode",
                          featurizer=type(self).__name__,
                          n_queries=batch.n_queries):
                matrix = self._featurize_compiled(batch)
            self._check_encoded(matrix, batch.n_queries)
        registry = obs.get_registry()
        registry.counter("featurize.queries_total").inc(batch.n_queries)
        registry.histogram("featurize.batch_size").record(batch.n_queries)
        return matrix

    # ------------------------------------------------------------------
    # Compile stage
    # ------------------------------------------------------------------

    def extract_expr(self, query: Query | BoolExpr | None) -> BoolExpr | None:
        """Validate a query against this featurizer and return its WHERE.

        Public surface of the extraction step :meth:`featurize` and
        :meth:`compile_batch` perform per query (single-table check,
        table-name check); plan callers use it to obtain the bare
        expression before :meth:`compile_plan`.
        """
        return self._extract_expr(query)

    def compile_plan(self, template: Query | BoolExpr | None,
                     n_literals: int) -> CompiledPlan:
        """Compile a statement template into a reusable plan.

        ``template`` is a query (or bare expression) whose numeric
        literals are their walk-order slot indices ``0 … n_literals-1``
        — :func:`~repro.sql.parser.parse_template`'s output, or
        :func:`~repro.sql.parser.make_template`'s.  Running this QFT's
        ordinary compile stage over it as it is makes the compiled
        ``value`` column the walk-order → compile-slot permutation,
        including any reordering or duplication (DNF cross products)
        the QFT performs.  All compile-time validation (query class,
        attribute resolution) runs here and raises exactly the errors
        ``compile_batch`` would raise for the same query; the returned
        plan then encodes any instance of the statement through
        :meth:`encode_with_plans` without re-walking its AST.
        """
        batch = self._compile_exprs([self._extract_expr(template)])
        return CompiledPlan.from_batch(batch, n_literals)

    def encode_with_plans(self, plans: Sequence[CompiledPlan],
                          literal_rows: Sequence[np.ndarray]) -> np.ndarray:
        """Encode a *mixed-shape* batch through pre-compiled plans.

        ``plans[i]`` is query ``i``'s plan and ``literal_rows[i]`` its
        walk-order literal vector; the plans may all differ.  The batch
        is stamped out in one stitching pass
        (:func:`~repro.featurize.batch.stitch_plans`) and encoded in
        one vectorized call, so the cost does not grow with the number
        of distinct shapes — the property the serving hot path relies
        on.  Produces the same matrix ``featurize_batch`` would for the
        original queries, minus every per-query compile pass.
        """
        if plans and plans[0].attributes is not self._attributes \
                and plans[0].attributes != self._attributes:
            # stitch_plans holds every other plan to plans[0]'s space.
            raise ValueError(
                "plan was compiled against a different feature space "
                f"({plans[0].attributes} != {self._attributes})"
            )
        matrix = self._featurize_compiled(stitch_plans(plans, literal_rows))
        self._check_encoded(matrix, len(plans))
        return matrix

    def compile_batch(self, queries: Iterable[Query | BoolExpr | None]
                      ) -> PredicateBatch:
        """Normalize queries into the columnar :class:`PredicateBatch` IR.

        Performs all per-query validation (table checks, attribute
        resolution, this QFT's query-class contract), raising at the
        first offending query in order.
        """
        exprs: list[BoolExpr | None] = []
        for query in queries:
            try:
                exprs.append(self._extract_expr(query))
            except ValueError:
                # A query before this one may fail to compile; its
                # error comes first.
                self._compile_exprs(exprs)
                raise
        return self._compile_exprs(exprs)

    def _compile_exprs(self, exprs: Sequence[BoolExpr | None]
                       ) -> PredicateBatch:
        """Flatten conjunctive WHERE expressions into grouped predicate rows.

        The default compile accepts the conjunctive query class shared
        by Singular, Range, and Universal Conjunction Encoding: each
        query's predicates are grouped by attribute (feature-space
        order, compile order within an attribute), one branch per
        segment.  QFTs with a wider class (Limited Disjunction
        Encoding) override this to emit several branches per segment.
        """
        builder = BatchBuilder(self._attributes)
        for qi, expr in enumerate(exprs):
            if expr is None:
                continue
            if not is_conjunctive(expr):
                raise self._disjunction_error(expr)
            by_attr: dict[int, list[SimplePredicate]] = {}
            for predicate in iter_simple_predicates(expr):
                by_attr.setdefault(self._attr_ids[self._resolve(predicate)],
                                   []).append(predicate)
            builder.add_query(qi, [(attr_id, (by_attr[attr_id],))
                                   for attr_id in sorted(by_attr)])
        return builder.build(len(exprs))

    def _disjunction_error(self, expr: BoolExpr) -> "LosslessnessError":
        """The error this QFT raises for disjunctive queries."""
        return LosslessnessError(
            f"{type(self).__name__} cannot represent disjunctions; "
            f"got: {shape_sql(expr)}"
        )

    # ------------------------------------------------------------------
    # Encode stage
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _featurize_compiled(self, batch: PredicateBatch) -> np.ndarray:
        """Encode a compiled batch into an ``(n, feature_length)`` matrix."""

    def _check_encoded(self, matrix: np.ndarray, n_queries: int) -> None:
        """Assert an encode kernel honoured the matrix contract."""
        if matrix.shape != (n_queries, self.feature_length) \
                or matrix.dtype != np.float64:
            raise AssertionError(
                f"{type(self).__name__} produced {matrix.dtype} matrix "
                f"of shape {matrix.shape}, expected float64 "
                f"({n_queries}, {self.feature_length})"
            )

    def _normalize_values(self, attr_ids: np.ndarray,
                          values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`~repro.data.stats.ColumnStats.normalize`.

        Bitwise-identical to that method: ``(v - min) / span`` clamped
        to ``[0, 1]``, and ``0.0`` on degenerate domains.
        """
        spans = self._spans[attr_ids]
        safe = np.where(spans > 0.0, spans, 1.0)
        scaled = (values - self._min_values[attr_ids]) / safe
        clamped = np.minimum(np.maximum(scaled, 0.0), 1.0)
        return np.where(spans > 0.0, clamped, 0.0)

    def _extract_expr(self, query: Query | BoolExpr | None) -> BoolExpr | None:
        if query is None:
            return None
        if isinstance(query, Query):
            if len(query.tables) != 1:
                raise ValueError(
                    f"{type(self).__name__} featurizes single-table queries; "
                    f"got tables {query.tables} — wrap join queries in "
                    "JoinQueryFeaturizer"
                )
            if query.tables[0] != self._table_name:
                raise ValueError(
                    f"query targets table {query.tables[0]!r} but this "
                    f"featurizer was fitted to {self._table_name!r}"
                )
            return query.where
        return query

    def _resolve(self, predicate: SimplePredicate) -> str:
        """Return the unqualified attribute name of ``predicate``."""
        attr = predicate.attribute
        prefix, dot, rest = attr.partition(".")
        if dot and prefix == self._table_name:
            attr = rest
        if attr not in self._stats:
            raise KeyError(
                f"predicate on unknown attribute {predicate.attribute!r} "
                f"(table {self._table_name!r})"
            )
        return attr

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(table={self._table_name!r}, "
                f"d={self.feature_length})")
