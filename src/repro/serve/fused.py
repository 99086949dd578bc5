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
   :class:`~repro.featurize.batch.CompiledPlan`, or the featurizer's
   rejection of it.
2. **execute** (:meth:`EstimatePipeline.execute`): requests — a
   statement plus its fingerprint literals — are stamped into one
   stitched encode
   (:meth:`~repro.featurize.base.Featurizer.encode_with_plans`) and one
   ``estimate_features`` predict (for gradient boosting the packed
   :class:`~repro.models.compiled_forest.CompiledForest`), with no
   bound AST ever built.

Execute has one leg, so the pipeline serves only estimators it can plan
for: a single-table :class:`~repro.featurize.base.Featurizer` as
``estimator.featurizer``, and ``estimate_features``.  Every artifact
``repro serve`` and the fleet workers load is such a
:class:`~repro.estimators.learned.LearnedEstimator`; any other
estimator is refused at construction with a ``TypeError``.

A QFT's query class is decided by a statement's AND/OR shape,
attributes and table, never by its literals.  So a statement the
featurizer rejects (unknown attribute, wrong table, a query class the
QFT cannot represent) is rejected once: the stored statement keeps the
exception's class and arguments, and ``resolve`` raises a fresh one for
every instance with the class and message ``estimator.estimate_batch``
raises for the parsed statement.  It raises in the caller's thread, so
a bad statement fails its own request and never rides a batch; a batch
that still raises in execute fails every request in it.  A seen
rejected statement costs one parse-cache probe, like a planned one.

Execute is bitwise-identical to ``estimator.estimate_batch`` on the
parsed statements.  A plan is the statement's own compile stage run
once, over its template.  The template holds slot index ``i`` where the
``i``-th fingerprint literal stands, and the parser builds the tree in
textual order, so slot order is walk order: a request's fingerprint
literals are its walk-order literal row as they stand.  Execute emits
``serve.fused.compile`` (gathering plans and literal rows; ``n_shapes``
counts the distinct plans in the batch), ``serve.fused.encode`` and
``serve.fused.predict`` spans.

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
from typing import Sequence

import numpy as np

from repro import obs
from repro.estimators.base import CardinalityEstimator
from repro.featurize.base import Featurizer
from repro.featurize.batch import CompiledPlan
from repro.serve.cache import ParseCache
from repro.sql.ast import Query
from repro.sql.parser import SqlSyntaxError, fingerprint_sql, parse_template

__all__ = ["EstimatePipeline", "Statement"]


@dataclass(frozen=True, eq=False)
class Statement:
    """A prepared statement: the value the parse cache stores.

    Immutable, so a statement one thread stored is safe for every other
    thread to execute.  Exactly one of ``plan`` and ``rejection`` is
    set.
    """

    #: Numeric literals per instance: the template's slot count.
    n_literals: int
    #: The statement's compiled plan.
    plan: CompiledPlan | None = None
    #: The featurizer's rejection as ``(exception class, args)``: each
    #: instance raises a fresh exception, never one shared across threads.
    rejection: tuple[type[Exception], tuple] | None = None


class EstimatePipeline:
    """Resolve → execute for one plannable estimator.

    Raises ``TypeError`` for an estimator without a single-table
    :class:`~repro.featurize.base.Featurizer` or ``estimate_features``.

    Thread safety: ``resolve`` and ``execute`` hold the pipeline's
    compute lane, the parse cache is locked, and statements are
    immutable once stored.
    """

    def __init__(self, estimator: CardinalityEstimator) -> None:
        featurizer = getattr(estimator, "featurizer", None)
        if not (isinstance(featurizer, Featurizer)
                and callable(getattr(estimator, "estimate_features", None))):
            raise TypeError(
                f"cannot serve {type(estimator).__name__}: serving needs a "
                "single-table Featurizer as the estimator's featurizer and "
                "an estimate_features method")
        self._estimator = estimator
        self._featurizer = featurizer
        self._parse_cache = ParseCache()
        self._lane = threading.Lock()

    @property
    def parse_cache(self) -> ParseCache:
        """The fingerprint-keyed statement cache (for stats and tests)."""
        return self._parse_cache

    def resolve(self, sqls: Sequence[str]
                ) -> list[tuple[Statement, tuple[float, ...]]]:
        """Resolve SQL statements into ``(statement, literals)`` requests.

        One parse-cache probe for the whole sequence; a first-seen
        statement is parsed and planned once, however many of its
        instances the sequence holds, and the sequence's first-seen
        statements are stored together.  Bad input raises here, in the
        caller's thread: malformed SQL the parser's ``ValueError``
        family at once, a rejected statement its featurizer error once
        the sequence is stored, so a syntax error anywhere wins over
        rejections, and the first rejection in order over the rest.
        """
        with obs.span("serve.lane.wait"):
            self._lane.acquire()
        try:
            return self._resolve(sqls)
        finally:
            self._lane.release()

    def _resolve(self, sqls: Sequence[str]
                 ) -> list[tuple[Statement, tuple[float, ...]]]:
        fingerprints = [fingerprint_sql(sql) for sql in sqls]
        statements = self._parse_cache.lookup_many(
            [key for key, _ in fingerprints])
        fresh: dict[str, Statement] = {}
        requests: list[tuple[Statement, tuple[float, ...]]] = []
        rejection = None
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
            rejection = rejection or statement.rejection
            requests.append((statement, literals))
        if fresh:
            self._parse_cache.store_many(fresh.items())
        if rejection is not None:
            error_class, args = rejection
            raise error_class(*args)
        return requests

    def _prepare(self, template: Query, n_literals: int) -> Statement:
        """Plan a statement template, or keep the featurizer's rejection."""
        try:
            plan = self._featurizer.compile_plan(template, n_literals)
        except (ValueError, TypeError, KeyError) as error:
            return Statement(n_literals, rejection=(type(error), error.args))
        return Statement(n_literals, plan=plan)

    def execute(self, requests: Sequence[tuple[Statement, tuple[float, ...]]]
                ) -> np.ndarray:
        """Estimate resolved requests; one estimate per request, in order.

        The requests share one stitched encode and one predict.
        """
        with obs.span("serve.lane.wait"):
            self._lane.acquire()
        try:
            return self._execute(requests)
        finally:
            self._lane.release()

    def _execute(self, requests: Sequence[tuple[Statement, tuple[float, ...]]]
                 ) -> np.ndarray:
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
