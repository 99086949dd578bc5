"""The fused compile→encode→predict serving hot path.

The ordinary miss path re-does per-request work that is invariant
across most production traffic: every micro-batch walks each query's
AST (compile), encodes per query, and — for gradient boosting — loops
python-level over every tree (predict).  :class:`FusedEstimatePath`
removes all three taxes for estimators that support it:

1. **compile** — each query is keyed by its *shape*
   (:func:`repro.featurize.batch.query_shape`: boolean structure with
   numeric literals masked) and resolves a
   :class:`~repro.featurize.batch.CompiledPlan` from the shape-keyed
   :class:`~repro.serve.cache.PlanCache`; only a never-seen shape pays
   an AST compile.
2. **encode** — the whole batch, however many distinct shapes it
   mixes, is stamped out in one plan-stitching pass
   (:meth:`~repro.featurize.base.Featurizer.encode_with_plans`:
   concatenate the plans' predicate columns, gather the literal
   vectors into place) and encoded in a single vectorized call.  No
   per-shape encode, no per-query anything — stitching is what lets
   plan caching win on shape-diverse traffic, where one encode call
   per shape group would cost more than the compile pass it saves.
3. **predict** — the matrix goes through the estimator's
   ``estimate_features`` in a single call, which for gradient boosting
   runs the packed :class:`~repro.models.compiled_forest.CompiledForest`
   (level-synchronous traversal, no per-tree loop).

Every stage emits a span (``serve.fused.compile`` / ``.encode`` /
``.predict``), and the whole path is bitwise-identical to
``estimator.estimate_batch`` on the same queries — the equivalence
suite and ``repro bench serve`` both assert it.

On top of the query-level path sits the **SQL-direct planned leg**: a
statement template the parse cache has already seen can be
shape-compiled once into a :class:`PlannedStatement` (shape key +
walk-order literal permutation).  Instances of that statement then
never materialize a bound AST at all — the service hands the fused
path the statement plus each instance's fingerprint literals, and the
literals are gathered straight into the stitched encode.  The leg is
available only for featurizers whose encode stage ignores
``batch.exprs`` (:attr:`~repro.featurize.base.Featurizer.encode_uses_exprs`
is ``False``), because there are no per-query expressions to give it.

The path is *conditional*: :meth:`FusedEstimatePath.try_build` returns
``None`` (bypass, legacy path) for estimators whose featurizer is not a
single-table :class:`~repro.featurize.base.Featurizer` — join
compositions, the global model, and MSCN keep their existing
``estimate_batch``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.estimators.base import CardinalityEstimator
from repro.featurize.base import Featurizer
from repro.featurize.batch import query_shape
from repro.serve.cache import PlanCache
from repro.sql.ast import BoolExpr, Query

__all__ = ["FusedEstimatePath", "PlannedStatement"]


@dataclass(frozen=True)
class PlannedStatement:
    """Shape-compiled form of a cached statement template.

    Produced once per statement by
    :meth:`FusedEstimatePath.plan_statement` and held in the serve
    layer's parse cache next to the re-bindable AST template.  An
    instance of the statement then rides the SQL-direct leg: its
    fingerprint literals, gathered through :attr:`perm`, go straight
    into the stitched encode without a bound AST ever existing.
    """

    #: The statement's shape key — equal to every instance's key, since
    #: :func:`~repro.featurize.batch.query_shape` masks literal values.
    shape_key: tuple
    #: Gather permutation: walk-order literal slot -> fingerprint
    #: (textual) literal index of the statement.
    perm: np.ndarray
    #: The template's validated WHERE expression; recompiles the plan
    #: if the plan cache has meanwhile evicted the shape.
    expr: BoolExpr | None


class FusedEstimatePath:
    """Shape-plan-cached batch estimation for a compiled estimator.

    Build via :meth:`try_build`; call :meth:`estimate_batch` exactly
    where ``estimator.estimate_batch`` would be called (the micro-batch
    executor and the client-batch endpoint).  Thread safety matches the
    underlying pieces: the plan cache is locked, encode and predict are
    pure, so concurrent calls are safe.
    """

    def __init__(self, estimator: CardinalityEstimator,
                 featurizer: Featurizer, plan_cache: PlanCache) -> None:
        self._estimator = estimator
        self._featurizer = featurizer
        self._plan_cache = plan_cache

    @classmethod
    def try_build(cls, estimator: CardinalityEstimator,
                  plan_cache: PlanCache) -> "FusedEstimatePath | None":
        """Build the fused path for ``estimator``, or ``None`` to bypass.

        Requirements: the estimator exposes a single-table
        :class:`~repro.featurize.base.Featurizer` (shape plans are
        defined on its compile stage) plus the fused entry points
        ``estimate_features`` and ``compile``.  When eligible, the
        estimator's model is compiled eagerly here so the first request
        doesn't pay the packing cost.
        """
        featurizer = getattr(estimator, "featurizer", None)
        if not isinstance(featurizer, Featurizer):
            return None
        if not (hasattr(estimator, "estimate_features")
                and hasattr(estimator, "compile")):
            return None
        estimator.compile()
        return cls(estimator, featurizer, plan_cache)

    @property
    def plan_cache(self) -> PlanCache:
        """The shape-keyed plan cache this path consults."""
        return self._plan_cache

    @property
    def supports_planned_statements(self) -> bool:
        """Whether the SQL-direct leg can run at all.

        The planned leg has no bound ASTs to offer the encode stage,
        so it requires a featurizer whose encode never reads
        ``batch.exprs``.
        """
        return not self._featurizer.encode_uses_exprs

    def plan_statement(self, template: Query) -> PlannedStatement | None:
        """Shape-compile a parsed statement template, or ``None``.

        ``None`` marks the statement as outside the planned class: the
        featurizer rejects it (wrong table, unknown attribute, a query
        class the QFT cannot represent) or its encode stage needs the
        bound expressions.  Instances of such statements simply take
        the bound-AST path, where the same validation raises per
        request.  Eligible statements also warm the plan cache here, so
        their first instance already hits.
        """
        if not self.supports_planned_statements:
            return None
        try:
            expr = self._featurizer.extract_expr(template)
            # The template's literal slots hold their own textual
            # indices (make_template), so the masked key equals every
            # instance's key and the walk-order literal vector *is*
            # the walk -> fingerprint permutation.
            key, sentinel = query_shape(expr)
            plan = self._plan_cache.lookup(key)
            if plan is None:
                plan = self._featurizer.compile_plan(expr)
                self._plan_cache.store(key, plan)
        except (ValueError, TypeError, KeyError):
            return None
        return PlannedStatement(shape_key=key,
                                perm=sentinel.astype(np.int64), expr=expr)

    def estimate_batch(self, queries: Sequence[Query]) -> np.ndarray:
        """Estimate a batch through the fused pipeline.

        Raises the same per-query validation errors the legacy path
        raises (wrong table, unknown attribute, unsupported query
        class); results are bitwise-identical to
        ``estimator.estimate_batch(queries)``.
        """
        batch = list(queries)
        if not batch:
            return np.empty(0, dtype=np.float64)
        # Per-query validation + shape keying; errors surface at the
        # first offending query, like compile_batch's extraction pass.
        exprs = [self._featurizer.extract_expr(q) for q in batch]
        shaped = [query_shape(e) for e in exprs]
        return self._execute([key for key, _ in shaped],
                             [literals for _, literals in shaped],
                             exprs, exprs)

    def estimate_planned(self, statements: Sequence[PlannedStatement],
                         literal_rows: Sequence[np.ndarray]) -> np.ndarray:
        """Estimate instances of planned statements (the SQL-direct leg).

        ``literal_rows[i]`` is instance ``i``'s literal vector already
        gathered to walk order through ``statements[i].perm``.  Results
        are bitwise-identical to :meth:`estimate_batch` on the
        equivalent bound queries — same plans, same stitched encode,
        same predict — minus the ASTs.
        """
        k = len(statements)
        if k == 0:
            return np.empty(0, dtype=np.float64)
        return self._execute([s.shape_key for s in statements],
                             literal_rows, (None,) * k,
                             [s.expr for s in statements])

    def _execute(self, keys: Sequence[tuple],
                 literal_rows: Sequence[np.ndarray],
                 exprs: Sequence[BoolExpr | None],
                 compile_exprs: Sequence[BoolExpr | None]) -> np.ndarray:
        """Resolve plans, stitch-encode, predict — the shared pipeline.

        ``exprs`` rides into the :class:`PredicateBatch` (all ``None``
        on the planned leg — allowed because that leg requires an
        encode that ignores them); ``compile_exprs`` is what a plan is
        compiled from when its shape misses the cache.
        """
        with obs.span("serve.fused.compile", n_queries=len(keys)) as span:
            # One probe of the (locked) cache for the batch's distinct
            # shapes; only the shapes it misses compile.
            compile_expr = dict(zip(keys, compile_exprs))
            shapes = list(compile_expr)
            local = dict(zip(shapes, self._plan_cache.lookup_many(shapes)))
            compiled = [(key, self._featurizer.compile_plan(compile_expr[key]))
                        for key in shapes if local[key] is None]
            local.update(compiled)
            self._plan_cache.store_many(compiled)
            plans = [local[key] for key in keys]
            if span is not None:
                span.set_attribute("n_shapes", len(local))
        with obs.span("serve.fused.encode", n_queries=len(keys)):
            matrix = self._featurizer.encode_with_plans(
                plans, literal_rows, exprs)
        with obs.span("serve.fused.predict", n_queries=len(keys),
                      metric="serve.fused.predict.seconds"):
            return self._estimator.estimate_features(matrix)
