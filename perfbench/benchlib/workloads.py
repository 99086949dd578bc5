"""Workload definitions, seeded inputs, and the timed set-up phases.

The servers only ever see generated SQL text.  What defines a workload
is fixed: the forest table, the training workload (so the model), and
the 64 statement templates of the parameterized pool all derive from
:data:`WORKLOAD_SEED`.  The run's ``--seed`` draws the traffic: the
literals each template is re-issued with, the ad-hoc mixed queries, and
(for the open loop) the arrival schedule and query picks.  Runs with
different seeds thus send different queries to the same system, and
their figures stay comparable.  Ground truth for each pool query comes from the
executor (:func:`repro.sql.executor.cardinality`), and the reference
estimate from the in-process ``estimate_batch`` of the very artifact
the server loads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.data.forest import generate_forest
from repro.data.table import Table
from repro.estimators import LearnedEstimator
from repro.featurize import BY_PAPER_LABEL
from repro.models import GradientBoostingRegressor
from repro.persistence import load_estimator, save_estimator
from repro.serve import ModelRegistry
from repro.sql.ast import And, BoolExpr, Op, Query, SimplePredicate
from repro.sql.executor import cardinality
from repro.sql.parser import parse_query
from repro.workloads import (
    generate_conjunctive_queries,
    generate_conjunctive_workload,
    generate_mixed_workload,
)

#: Seed of everything that defines a workload rather than its traffic.
WORKLOAD_SEED = 2023

__all__ = ["WORKLOAD_SEED", "WORKLOADS", "Workload", "Pool", "Sizes",
           "make_pool", "make_table", "reference_estimates", "train",
           "publish"]


@dataclass(frozen=True)
class Workload:
    """One traffic mix: its model, its query pool, and its load shape."""

    name: str
    why: str
    qft: str            # paper label of the QFT: "conjunctive" / "complex"
    trees: int          # gradient-boosting trees
    pool: str           # "param" (64 templates) or "mixed" (ad-hoc)
    batch: int          # SQL statements per request (1 = /v1/estimate)
    fleet: bool = False
    open_loop: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("param-batch64",
             "prepared-statement traffic: fingerprint, caches, stitched "
             "encode and compiled predict do the work; parser and batcher "
             "are bypassed",
             qft="conjunctive", trees=30, pool="param", batch=64),
    Workload("mixed-adhoc16",
             "the paper's ad-hoc AND/OR queries: the working set exceeds "
             "the parse and plan caches, so parse and compile dominate",
             qft="complex", trees=30, pool="mixed", batch=16),
    Workload("single-open",
             "interactive optimizer traffic at fixed Poisson rates with "
             "feedback writes: batcher wait, per-request HTTP and "
             "telemetry dominate",
             qft="conjunctive", trees=30, pool="param", batch=1,
             open_loop=True),
    Workload("fleet-2w",
             "the only path through the fleet router: forward, hash-ring "
             "fan-out over 2 worker processes, and merge",
             qft="conjunctive", trees=60, pool="param", batch=64,
             fleet=True),
)}


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``smoke`` shrinks everything to a seconds-long run."""

    rows: int
    train_queries: int
    pool: int
    templates: int

    @classmethod
    def for_mode(cls, smoke: bool) -> "Sizes":
        if smoke:
            return cls(rows=2_000, train_queries=200, pool=256, templates=16)
        return cls(rows=10_000, train_queries=1_000, pool=4_096,
                   templates=64)


@dataclass
class Pool:
    """The SQL the load generator sends, the queries it encodes, and
    their executor-true cardinalities."""

    queries: list[Query]
    sqls: list[str]
    truth: np.ndarray


def make_table(sizes: Sizes) -> Table:
    """The synthetic forest covertype table every workload serves."""
    return generate_forest(rows=sizes.rows, seed=WORKLOAD_SEED)


def _rebind(where: BoolExpr, table: Table, row: int) -> BoolExpr:
    """A conjunctive WHERE re-anchored at ``row``: every literal of an
    attribute shifts so its range centres on the row's value.

    The statement text keeps its template (same attributes, operators and
    literal count, so the same fingerprint) while the literals are fresh
    and the result is rarely empty, as with real re-issued parameters.
    """
    predicates = list(where.children) if isinstance(where, And) else [where]
    bounds: dict[str, list[float]] = {}
    for predicate in predicates:
        if predicate.op in (Op.GE, Op.LE):
            bounds.setdefault(predicate.attribute, []).append(predicate.value)
    shifts = {}
    for attribute, values in bounds.items():
        column = table.column(attribute)
        shift = float(column.values[row]) - (min(values) + max(values)) / 2
        # "+ 0.0" turns a -0.0 shift into 0.0, which prints as "0".
        shifts[attribute] = (float(np.round(shift)) if column.stats.is_integral
                             else shift) + 0.0
    rebound = [SimplePredicate(p.attribute, p.op,
                               p.value + shifts.get(p.attribute, 0.0))
               for p in predicates]
    return And(rebound) if len(rebound) > 1 else rebound[0]


def make_pool(workload: Workload, table: Table, seed: int,
              sizes: Sizes) -> Pool:
    """The workload's query pool, deterministic in ``seed``.

    ``param``: ``templates`` conjunctive statements, instance ``i``
    re-issuing template ``i % templates`` re-anchored at a random row, so every
    batch of 64 carries each template once.  ``mixed``: ad-hoc queries
    from :func:`generate_mixed_workload`, already labelled.
    """
    if workload.pool == "mixed":
        labelled = generate_mixed_workload(table, sizes.pool, seed=seed)
        return Pool(labelled.queries, [q.to_sql() for q in labelled.queries],
                    np.asarray(labelled.cardinalities, dtype=np.float64))
    bases = generate_conjunctive_queries(table, sizes.templates,
                                         seed=WORKLOAD_SEED + 2)
    rows = np.random.default_rng(seed).integers(table.row_count,
                                                size=sizes.pool)
    queries = [replace(bases[i % sizes.templates],
                       where=_rebind(bases[i % sizes.templates].where,
                                     table, int(rows[i])))
               for i in range(sizes.pool)]
    truth = np.asarray([cardinality(q, table) for q in queries],
                       dtype=np.float64)
    return Pool(queries, [q.to_sql() for q in queries], truth)


def train(workload: Workload, table: Table, sizes: Sizes,
          timings: dict) -> LearnedEstimator:
    """Label a training workload and fit the workload's GB estimator.

    Records ``labels`` and ``fit`` seconds into ``timings``.
    """
    start = time.perf_counter()
    generate = (generate_mixed_workload if workload.pool == "mixed"
                else generate_conjunctive_workload)
    training = generate(table, sizes.train_queries, seed=WORKLOAD_SEED + 1)
    timings["labels"] = time.perf_counter() - start
    start = time.perf_counter()
    featurizer = BY_PAPER_LABEL[workload.qft](table, max_partitions=64)
    # No early stopping: the served forest has exactly ``trees`` trees.
    model = GradientBoostingRegressor(n_estimators=workload.trees,
                                      early_stopping_rounds=None,
                                      random_state=WORKLOAD_SEED)
    estimator = LearnedEstimator(featurizer, model).fit(
        training.queries, training.cardinalities)
    timings["fit"] = time.perf_counter() - start
    return estimator


def publish(workload: Workload, estimator: LearnedEstimator,
            target: Path) -> Path:
    """Persist the estimator where the server will load it from.

    ``repro serve`` gets a plain ``.npz`` artifact; the fleet gets a
    model registry with the model published as ``bench``.  Returns the
    artifact file the reference estimates must be computed from.
    """
    if workload.fleet:
        return ModelRegistry(target).publish(estimator, "bench").artifact_path
    save_estimator(estimator, target)
    return target


def reference_estimates(artifact: Path, pool: Pool) -> np.ndarray:
    """In-process ``estimate_batch`` of the served artifact on the pool.

    The generated queries stand in for their parsed SQL: ``to_sql``
    prints every literal exactly, so ``parse_query(q.to_sql()) == q``.
    A sample of the pool re-checks that here.
    """
    for index in range(0, len(pool.sqls), max(1, len(pool.sqls) // 64)):
        if parse_query(pool.sqls[index]) != pool.queries[index]:
            raise ValueError(f"pool query {index} does not round-trip "
                             f"through its SQL: {pool.sqls[index]}")
    return np.asarray(load_estimator(artifact).estimate_batch(pool.queries),
                      dtype=np.float64)
