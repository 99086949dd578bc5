"""The serving pipeline: resolve SQL to prepared statements, execute them
in batches.

Every estimate the service computes — a single request riding the
micro-batcher, a client batch, a feedback re-estimate — runs the same
two stages of :class:`EstimatePipeline`:

1. **resolve** (:meth:`EstimatePipeline.resolve`, in the caller's
   thread): fingerprint the SQL text
   (:func:`~repro.sql.parser.fingerprint_sql` — literals masked) and
   look the fingerprint up in the :class:`~repro.serve.cache.ParseCache`.
   A seen statement costs that one probe.  A first-seen statement's
   fingerprint key is parsed once, straight into its template
   (:func:`~repro.sql.parser.parse_template`), planned once, and
   stored: the cached :class:`Statement` carries its own
   :class:`~repro.featurize.batch.CompiledPlan`.
2. **execute** (:meth:`EstimatePipeline.execute`): planned requests —
   a statement plus its fingerprint literals — are stamped into one
   stitched encode
   (:meth:`~repro.featurize.base.Featurizer.encode_with_plans`) and one
   ``estimate_features`` predict (for gradient boosting the packed
   :class:`~repro.models.compiled_forest.CompiledForest`), with no
   bound AST ever built.  Every other request reaches the **adapter**
   leg as a bound query, and the adapter is the estimator's own
   ``estimate_batch``.

The adapter leg serves estimators without a plannable single-table
featurizer (joins, the global model, MSCN) and statements the
featurizer rejects (unknown attribute, wrong table, a query class the
QFT cannot represent — the adapter raises their error).

Both legs are bitwise-identical to ``estimator.estimate_batch`` on the
parsed statements.  A plan is the statement's own compile stage run
once, over its template.  The template holds slot index ``i`` where the
``i``-th fingerprint literal stands, and the parser builds the tree in
textual order, so slot order is walk order: a request's fingerprint
literals are its walk-order literal row as they stand, and the planned
leg is exact from a statement's first request on.  The planned execute
emits ``serve.fused.compile`` (gathering plans and literal rows;
``n_shapes`` counts the distinct plans in the batch),
``serve.fused.encode`` and ``serve.fused.predict`` spans.

**One compute lane.**  The pipeline owns one lock, and ``resolve`` and
``execute`` run while holding it, so at most one thread of the process
runs estimator work on this pipeline at a time: single requests
(resolve in the handler thread, execute on the batcher worker), client
batches, feedback re-estimates.  Threads that share one GIL gain
nothing from running numpy kernels side by side; they convoy, each
paying for the others' GIL hand-offs.  Waiting on the lane instead
blocks without the GIL, and what stays outside it (HTTP parsing, JSON,
the estimate-cache probe, telemetry) still overlaps.  The wait is the
``serve.lane.wait`` span, under whichever span is open.  The lane is
never held across the batcher's wait, a future or socket I/O.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro import obs
from repro.estimators.base import CardinalityEstimator
from repro.featurize.base import Featurizer
from repro.featurize.batch import CompiledPlan
from repro.serve.cache import ParseCache
from repro.sql.ast import Query
from repro.sql.parser import (
    SqlSyntaxError,
    bind_template,
    fingerprint_sql,
    parse_template,
)

__all__ = ["EstimatePipeline", "Resolved", "Statement"]


@dataclass(frozen=True, eq=False)
class Statement:
    """A prepared statement: the value the parse cache stores.

    Immutable, so a statement one thread stored is safe for every other
    thread to execute.
    """

    #: The re-bindable AST (:func:`~repro.sql.parser.parse_template`).
    template: Query
    #: Numeric literals per instance: the template's slot count.
    n_literals: int
    #: The statement's compiled plan; ``None`` when the adapter leg
    #: serves it.
    plan: CompiledPlan | None = None


#: A resolved request: a planned statement with its fingerprint
#: literals, or the bound query the adapter leg estimates.
Resolved = Union[tuple[Statement, tuple[float, ...]], Query]


class EstimatePipeline:
    """Resolve → execute for one estimator.

    Thread safety: ``resolve`` and ``execute`` hold the pipeline's
    compute lane, the parse cache is locked, and statements are
    immutable once stored.
    """

    def __init__(self, estimator: CardinalityEstimator) -> None:
        self._estimator = estimator
        self._parse_cache = ParseCache()
        self._lane = threading.Lock()
        featurizer = getattr(estimator, "featurizer", None)
        plannable = (isinstance(featurizer, Featurizer)
                     and hasattr(estimator, "estimate_features"))
        self._featurizer = featurizer if plannable else None

    @property
    def parse_cache(self) -> ParseCache:
        """The fingerprint-keyed statement cache (for stats and tests)."""
        return self._parse_cache

    def resolve(self, sqls: Sequence[str]) -> list[Resolved]:
        """Resolve SQL statements into executable requests.

        One parse-cache probe for the whole sequence; a first-seen
        statement is parsed and planned once, however many of its
        instances the sequence holds, and the sequence's first-seen
        statements are stored together.  Malformed SQL raises the
        parser's ``ValueError`` family here, in the caller's thread.
        """
        with obs.span("serve.lane.wait"):
            self._lane.acquire()
        try:
            return self._resolve(sqls)
        finally:
            self._lane.release()

    def _resolve(self, sqls: Sequence[str]) -> list[Resolved]:
        fingerprints = [fingerprint_sql(sql) for sql in sqls]
        statements = self._parse_cache.lookup_many(
            [key for key, _ in fingerprints])
        fresh: dict[str, Statement] = {}
        requests: list[Resolved] = []
        for (key, literals), statement in zip(fingerprints, statements):
            if statement is None:
                statement = fresh.get(key)
            if statement is None:
                statement = fresh[key] = self._prepare(
                    parse_template(key, len(literals)), len(literals))
            elif len(literals) != statement.n_literals:
                # Same key, fewer literals: a '?' of the text itself
                # stands where the statement has a literal.
                raise SqlSyntaxError(
                    "unexpected character '?' where the statement has a "
                    "literal")
            if statement.plan is not None:
                requests.append((statement, literals))
            else:
                requests.append(bind_template(statement.template, literals))
        if fresh:
            self._parse_cache.store_many(fresh.items())
        return requests

    def _prepare(self, template: Query, n_literals: int) -> Statement:
        """Plan a statement template, or leave it to the adapter leg.

        A template the featurizer rejects stays unplanned; its requests
        reach the adapter, which raises the same error per request.
        """
        if self._featurizer is None:
            return Statement(template, n_literals)
        try:
            plan = self._featurizer.compile_plan(template, n_literals)
        except (ValueError, TypeError, KeyError):
            return Statement(template, n_literals)
        return Statement(template, n_literals, plan)

    def execute(self, requests: Sequence[Resolved]) -> np.ndarray:
        """Estimate resolved requests; one estimate per request, in order.

        Planned requests share one stitched encode and one predict;
        the rest share one ``estimator.estimate_batch`` call.
        """
        with obs.span("serve.lane.wait"):
            self._lane.acquire()
        try:
            return self._execute(requests)
        finally:
            self._lane.release()

    def _execute(self, requests: Sequence[Resolved]) -> np.ndarray:
        estimates = np.empty(len(requests), dtype=np.float64)
        planned = [i for i, request in enumerate(requests)
                   if isinstance(request, tuple)]
        bound = [i for i, request in enumerate(requests)
                 if not isinstance(request, tuple)]
        if planned:
            estimates[planned] = self._execute_planned(
                [requests[i] for i in planned])
        if bound:
            estimates[bound] = self._estimator.estimate_batch(
                [requests[i] for i in bound])
        return estimates

    def _execute_planned(self, requests: Sequence[tuple]) -> np.ndarray:
        """Stitch-encode and predict planned requests."""
        k = len(requests)
        with obs.span("serve.fused.compile", n_queries=k) as span:
            plans = [statement.plan for statement, _ in requests]
            rows = [literals for _, literals in requests]
            if span is not None:
                span.set_attribute("n_shapes", len({id(p) for p in plans}))
        with obs.span("serve.fused.encode", n_queries=k):
            matrix = self._featurizer.encode_with_plans(plans, rows)
        with obs.span("serve.fused.predict", n_queries=k,
                      metric="serve.fused.predict.seconds"):
            return self._estimator.estimate_features(matrix)
