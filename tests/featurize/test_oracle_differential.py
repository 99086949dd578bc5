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
represent a query.  A second property draws serving-sized batches: up
to 64 statements re-issuing a few shapes with fresh literals, so one
plan object repeats within a batch.  Its shapes also reference unknown
attributes, the wrong table and disjunctions across attributes, and a
shape ``compile_plan`` rejects must be rejected by ``featurize_batch``
with the same class and message on every binding of its literals: the
serving layer rejects a statement once and answers every instance with
that error.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.table import Table
from repro.featurize import LosslessnessError
from repro.sql.ast import (
    And,
    Op,
    Or,
    Query,
    SimplePredicate,
    iter_simple_predicates,
)
from repro.sql.parser import bind_template
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


@st.composite
def out_of_class(draw, expr):
    """``expr`` conjoined with a term every configuration rejects: an
    unknown attribute (bare, or qualified by another table), or a
    disjunction across two attributes."""
    first, second = draw(st.lists(st.sampled_from(ATTRS), min_size=2,
                                  max_size=2, unique=True))
    term = draw(st.one_of(
        st.builds(SimplePredicate, st.sampled_from(["Z", "u.I"]),
                  st.sampled_from(list(Op)), st.integers(-3, 3).map(float)),
        st.builds(lambda a, b: Or([a, b]), predicates(first),
                  predicates(second))))
    return term if expr is None else conjoin([expr, term])


@st.composite
def statement_batches(draw):
    """A few statement shapes and up to 64 instances of them.

    Returns ``(shapes, statements)``: each shape is ``(template,
    n_literals)`` as ``compile_plan`` takes it, the template a query
    on ``t`` or, now and then, on the wrong table ``u``; each
    statement is ``(shape index, walk-order literals)``, the literals
    drawn per slot from the slot's attribute, out-of-domain values
    included.  The first statement's shape is drawn again at the end,
    so a batch always repeats a plan.
    """
    exprs = draw(st.lists(st.one_of(conjunctions(), mixed_queries(),
                                    st.none()), min_size=1, max_size=4))
    exprs = [draw(out_of_class(expr)) if draw(st.integers(0, 3)) == 0
             else expr for expr in exprs]
    shapes = []
    for expr in exprs:
        template, n_literals = reference.plan_template(expr)
        table = draw(st.sampled_from(["t", "t", "t", "u"]))
        shapes.append((Query.single_table(table, template), n_literals))
    slot_attributes = [
        [] if template.where is None else
        [p.attribute.removeprefix("t.")
         for p in iter_simple_predicates(template.where)]
        for template, _ in shapes]
    picks = draw(st.lists(st.integers(0, len(shapes) - 1), min_size=1,
                          max_size=63))
    picks.append(picks[0])
    statements = [(pick, tuple(draw(literals(attr) if attr in ATTRS
                                    else st.integers(-3, 3).map(float))
                               for attr in slot_attributes[pick]))
                  for pick in picks]
    return shapes, statements


def _rejection(featurizer, query) -> tuple[type, str] | None:
    """The class and message of ``featurize_batch``'s error on
    ``query``, if it raises one."""
    try:
        featurizer.featurize_batch([query])
    except (ValueError, KeyError) as error:
        return type(error), str(error)
    return None


def check_plan_batch(shapes, statements) -> None:
    """Every QFT plans a shape or rejects it as ``featurize_batch``
    rejects each binding of it.  Planned batches encode without raising
    and equal ``featurize_batch``, the oracle, and row by row their
    statements' ``n = 1`` encodes."""
    for label, featurizer in CASES:
        plans, rejections = {}, {}
        for index, (template, n_literals) in enumerate(shapes):
            try:
                plans[index] = featurizer.compile_plan(template, n_literals)
            except (ValueError, KeyError) as error:
                rejections[index] = type(error), str(error)
        for pick, values in statements:
            if pick not in plans:
                query = bind_template(shapes[pick][0], values)
                assert _rejection(featurizer, query) == rejections[pick], (
                    f"{label}: featurize_batch and compile_plan disagree "
                    f"on {query.to_sql()}")
        kept = [(pick, values) for pick, values in statements
                if pick in plans]
        if not kept:
            continue
        queries = [bind_template(shapes[pick][0], values)
                   for pick, values in kept]
        matrix = featurizer.encode_with_plans(
            [plans[pick] for pick, _ in kept],
            [values for _, values in kept])
        assert np.array_equal(matrix, featurizer.featurize_batch(queries)), (
            f"{label}: planned batch diverges from featurize_batch")
        assert np.array_equal(matrix, reference.matrix(featurizer, queries)), (
            f"{label}: planned batch diverges from the oracle")
        for row, (pick, values) in zip(matrix, kept):
            single = featurizer.encode_with_plans([plans[pick]], [values])
            assert np.array_equal(row, single[0]), (
                f"{label}: batch row differs from its n = 1 encode")


@given(statement_batches())
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_plan_batches_at_serving_size_match_batch_and_oracle(batch):
    check_plan_batch(*batch)
