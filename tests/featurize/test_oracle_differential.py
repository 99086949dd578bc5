"""Generated-input differential test: every QFT kernel against the oracle.

Hypothesis draws batches of conjunctions and Definition 3.3 mixed
queries over a table whose columns cover each encoding regime: exact
integers (one partition per value), wide integers (½ boundary
partitions), floats (continuous selectivity) and a constant column.
Literals fall below, at and above each domain and include fractions;
predicates repeat, contradict each other and run in ``<>`` chains;
attributes are spelled bare and table-qualified; some queries have no
predicates.  For every configuration in ``featurizer_cases``, both
``featurize_batch`` and the serving leg's ``compile_plan`` +
``encode_with_plans`` must equal :mod:`tests.featurize.reference` row
by row, bitwise — or raise the oracle's error when a QFT cannot
represent a query.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.table import Table
from repro.featurize import LosslessnessError
from repro.sql.ast import And, Op, Or, SimplePredicate
from tests.featurize import reference
from tests.featurize.test_batch_equivalence import (
    featurizer_cases,
    plan_encode,
)


def _table() -> Table:
    rng = np.random.default_rng(17)
    rows = 240
    exact = rng.integers(0, 10, rows).astype(np.float64)
    exact[:2] = (0.0, 9.0)
    return Table("t", {
        "I": exact,
        "W": rng.integers(-500, 1500, rows).astype(np.float64),
        "F": rng.uniform(-5.0, 5.0, rows),
        "C": np.full(rows, 3.0),
    })


TABLE = _table()
CASES = featurizer_cases(TABLE)
ATTRS = TABLE.column_names


def literals(attr: str):
    stats = TABLE.column(attr).stats
    lo, hi = stats.min_value, stats.max_value
    return st.one_of(
        st.sampled_from([lo - 1.0, lo - 0.5, lo, lo + 0.5, hi - 0.5, hi,
                         hi + 0.5, hi + 1.0]),
        st.integers(int(lo) - 2, int(hi) + 2).map(float),
        st.floats(lo - 1.0, hi + 1.0, allow_nan=False),
    )


@st.composite
def predicates(draw, attr: str | None = None, op: Op | None = None):
    attr = attr or draw(st.sampled_from(ATTRS))
    spelling = draw(st.sampled_from([attr, f"t.{attr}"]))
    op = op or draw(st.sampled_from(list(Op)))
    return SimplePredicate(spelling, op, draw(literals(attr)))


def conjoin(parts):
    return parts[0] if len(parts) == 1 else And(parts)


@st.composite
def conjunctions(draw):
    preds = draw(st.lists(predicates(), max_size=5))
    if preds and draw(st.booleans()):
        # A repeat, then a contradictory pair on the same literal.
        repeated = draw(st.sampled_from(preds))
        preds += [repeated,
                  SimplePredicate(repeated.attribute, Op.EQ, repeated.value),
                  SimplePredicate(repeated.attribute, Op.NE, repeated.value)]
    if draw(st.booleans()):
        attr = draw(st.sampled_from(ATTRS))
        preds += draw(st.lists(predicates(attr, Op.NE), min_size=2,
                               max_size=4))
    return conjoin(preds) if preds else None


@st.composite
def mixed_queries(draw):
    """A conjunction of per-attribute compound predicates (Def. 3.3)."""
    terms = []
    for attr in draw(st.lists(st.sampled_from(ATTRS), min_size=1,
                              max_size=3, unique=True)):
        branches = draw(st.lists(
            st.lists(predicates(attr), min_size=1, max_size=3),
            min_size=1, max_size=3))
        disjuncts = [conjoin(branch) for branch in branches]
        terms.append(disjuncts[0] if len(disjuncts) == 1 else Or(disjuncts))
    return conjoin(terms)


def check_against_oracle(queries) -> None:
    for label, featurizer in CASES:
        try:
            expected = reference.matrix(featurizer, queries)
        except LosslessnessError as error:
            try:
                featurizer.featurize_batch(queries)
            except LosslessnessError as got:
                assert str(got) == str(error), label
            else:
                raise AssertionError(f"{label}: batch accepted {error}")
            try:
                plan_encode(featurizer, queries)
            except LosslessnessError:
                continue
            raise AssertionError(f"{label}: plan accepted {error}")
        batch = featurizer.featurize_batch(queries)
        assert np.array_equal(batch, expected), (
            f"{label}: featurize_batch diverges from the oracle")
        assert np.array_equal(plan_encode(featurizer, queries), expected), (
            f"{label}: compile_plan + encode_with_plans diverges from the "
            "oracle")


@given(st.lists(st.one_of(conjunctions(), mixed_queries(), st.none()),
                min_size=1, max_size=5))
@settings(max_examples=80, deadline=None)
def test_kernels_match_oracle_on_generated_queries(queries):
    check_against_oracle(queries)
