"""Property-based round-trip tests: AST -> SQL -> AST.

The invariant: rendering any supported query to SQL and re-parsing it
yields a query with the same semantics — identical selection masks on a
concrete table, and an identical Definition 3.3 normal form.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.table import Table
from repro.sql.ast import And, Op, Or, Query, SimplePredicate
from repro.sql.executor import selection_mask
from repro.sql.parser import parse_query

ATTRS = ("A", "B", "C")


@pytest.fixture(scope="module")
def table():
    rng = np.random.default_rng(12)
    return Table("t", {a: rng.integers(0, 30, 200).astype(float)
                       for a in ATTRS})


#: Literal values: the table's integral range, plus any finite float —
#: tiny, subnormal and negative ones included, where ``repr`` would
#: switch to the exponent form the parser does not read.
literals = st.one_of(
    st.integers(min_value=-3, max_value=33).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-4, max_value=1e-4),
)


def predicates_on(attr):
    return st.builds(
        SimplePredicate,
        attribute=st.just(attr),
        op=st.sampled_from(list(Op)),
        value=literals,
    )


def compound_on(attr):
    """A per-attribute compound predicate: OR of small conjunctions."""
    conjunction = st.lists(predicates_on(attr), min_size=1, max_size=3).map(
        lambda ps: And(ps) if len(ps) > 1 else ps[0]
    )
    return st.lists(conjunction, min_size=1, max_size=3).map(
        lambda branches: Or(branches) if len(branches) > 1 else branches[0]
    )


mixed_queries = st.lists(
    st.sampled_from(ATTRS), min_size=1, max_size=3, unique=True
).flatmap(
    lambda attrs: st.tuples(*(compound_on(a) for a in attrs)).map(
        lambda compounds: Query.single_table(
            "t", And(list(compounds)) if len(compounds) > 1 else compounds[0]
        )
    )
)


class TestSqlRoundTrip:
    @given(mixed_queries)
    @settings(max_examples=200, deadline=None)
    def test_masks_identical_after_round_trip(self, table, query):
        reparsed = parse_query(query.to_sql())
        np.testing.assert_array_equal(
            selection_mask(query.where, table),
            selection_mask(reparsed.where, table),
        )

    @given(mixed_queries)
    @settings(max_examples=200, deadline=None)
    def test_compound_form_identical_after_round_trip(self, table, query):
        reparsed = parse_query(query.to_sql())
        assert reparsed.compound_form() == query.compound_form()

    @given(mixed_queries)
    @settings(max_examples=100, deadline=None)
    def test_double_round_trip_is_stable(self, table, query):
        once = parse_query(query.to_sql())
        twice = parse_query(once.to_sql())
        assert once.to_sql() == twice.to_sql()
