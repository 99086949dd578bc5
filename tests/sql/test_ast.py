"""Tests for the query AST (repro.sql.ast)."""

import pytest

from repro.sql.ast import (
    MAX_COMPOUND_BRANCHES,
    And,
    JoinPredicate,
    Op,
    Or,
    Query,
    SimplePredicate,
    UnsupportedQueryError,
    attributes_of,
    is_conjunctive,
    iter_simple_predicates,
    to_compound_form,
)


def p(attr, op, val):
    return SimplePredicate(attr, Op.from_symbol(op), val)


class TestOp:
    def test_symbols_round_trip(self):
        for symbol in ("=", "<>", "<", "<=", ">", ">="):
            assert str(Op.from_symbol(symbol)) == symbol

    def test_bang_equals_alias(self):
        assert Op.from_symbol("!=") is Op.NE

    def test_unknown_symbol(self):
        with pytest.raises(ValueError, match="unknown"):
            Op.from_symbol("~")


class TestSimplePredicate:
    def test_to_sql_integer_literal(self):
        assert p("A", ">", 5).to_sql() == "A > 5"

    def test_to_sql_float_literal(self):
        assert p("A", "<=", 4.5).to_sql() == "A <= 4.5"

    def test_rejects_empty_attribute(self):
        with pytest.raises(ValueError):
            SimplePredicate("", Op.EQ, 1.0)

    def test_rejects_non_op(self):
        with pytest.raises(TypeError):
            SimplePredicate("A", ">", 1.0)  # string op, not Op


class TestBooleanNodes:
    def test_and_flattens_nested_ands(self):
        expr = And([And([p("A", ">", 1), p("A", "<", 5)]), p("B", "=", 2)])
        assert len(expr.children) == 3

    def test_or_flattens_nested_ors(self):
        expr = Or([Or([p("A", "=", 1), p("A", "=", 2)]), p("A", "=", 3)])
        assert len(expr.children) == 3

    def test_and_does_not_flatten_or(self):
        expr = And([Or([p("A", "=", 1), p("A", "=", 2)]), p("B", "=", 3)])
        assert len(expr.children) == 2

    def test_empty_children_rejected(self):
        with pytest.raises(ValueError):
            And([])
        with pytest.raises(ValueError):
            Or([])

    def test_sql_rendering_parenthesises_or_inside_and(self):
        expr = And([Or([p("A", "=", 1), p("A", "=", 2)]), p("B", "=", 3)])
        assert expr.to_sql() == "(A = 1 OR A = 2) AND B = 3"

    def test_iter_simple_predicates_order(self):
        expr = And([p("A", ">", 1), Or([p("B", "=", 2), p("B", "=", 3)])])
        values = [q.value for q in iter_simple_predicates(expr)]
        assert values == [1, 2, 3]

    def test_attributes_of_first_seen_order(self):
        expr = And([p("B", ">", 1), p("A", "<", 5), p("B", "<", 9)])
        assert attributes_of(expr) == ("B", "A")

    def test_is_conjunctive(self):
        assert is_conjunctive(And([p("A", ">", 1), p("B", "<", 2)]))
        assert not is_conjunctive(Or([p("A", ">", 1), p("A", "<", 2)]))
        assert is_conjunctive(p("A", ">", 1))


class TestCompoundForm:
    def test_single_predicate(self):
        form = to_compound_form(p("A", ">", 1))
        assert form == {"A": (((p("A", ">", 1)),),)} or \
            form["A"] == ((p("A", ">", 1),),)

    def test_conjunction_groups_by_attribute(self):
        expr = And([p("A", ">", 1), p("B", "=", 2), p("A", "<", 9)])
        form = to_compound_form(expr)
        assert set(form) == {"A", "B"}
        # A's compound is one conjunction branch with both predicates.
        assert len(form["A"]) == 1
        assert len(form["A"][0]) == 2

    def test_per_attribute_disjunction(self):
        expr = And([
            Or([And([p("A", ">", 1), p("A", "<", 5)]), p("A", "=", 9)]),
            p("B", ">=", 3),
        ])
        form = to_compound_form(expr)
        assert len(form["A"]) == 2  # two OR branches
        assert len(form["A"][0]) == 2
        assert len(form["A"][1]) == 1

    def test_and_inside_or_distributes(self):
        # (A=1 OR A=2) AND (A<5 OR A>7): a single-attribute tree in
        # non-DNF shape; the DNF has 4 branches.
        expr = And([
            Or([p("A", "=", 1), p("A", "=", 2)]),
            Or([p("A", "<", 5), p("A", ">", 7)]),
        ])
        form = to_compound_form(expr)
        assert len(form["A"]) == 4

    def test_cross_attribute_disjunction_rejected(self):
        expr = Or([p("A", ">", 1), p("B", "<", 5)])
        with pytest.raises(UnsupportedQueryError, match="Definition 3.3"):
            to_compound_form(expr)

    def test_branch_cap(self):
        def or_pairs(k):
            return And([Or([p("A", ">", i), p("A", "<", -i)])
                        for i in range(k)])

        widest = MAX_COMPOUND_BRANCHES.bit_length() - 1
        assert len(to_compound_form(or_pairs(widest))["A"]) \
            == MAX_COMPOUND_BRANCHES
        with pytest.raises(UnsupportedQueryError, match="branches"):
            to_compound_form(or_pairs(widest + 1))
        flat = Or([p("A", "=", i) for i in range(MAX_COMPOUND_BRANCHES + 1)])
        with pytest.raises(UnsupportedQueryError, match="branches"):
            to_compound_form(flat)

    def test_multi_attribute_term_combines_no_forms(self, monkeypatch):
        # A term is refused once it holds a second attribute, whatever
        # its form, so no form is combined after that: the reader of a
        # wide mixed-attribute term pays one pass over its leaves.
        import repro.sql.ast as ast

        combined = []
        for name in ("_conjoin", "_disjoin"):
            real = getattr(ast, name)
            monkeypatch.setattr(ast, name, lambda forms, real=real:
                                combined.append(forms) or real(forms))
        wide = Or([And([Or([p("A", ">", i), p("B", "<", i)])
                        for i in range(8)]) for _ in range(800)])
        with pytest.raises(UnsupportedQueryError, match="Definition 3.3"):
            to_compound_form(And([p("C", "=", 1), wide]))
        assert combined == []


class TestQuery:
    def test_single_table_constructor(self):
        query = Query.single_table("t", p("A", ">", 1))
        assert query.tables == ("t",)
        assert query.predicates == (p("A", ">", 1),)

    def test_requires_tables(self):
        with pytest.raises(ValueError, match="at least one table"):
            Query(tables=())

    def test_rejects_duplicate_tables(self):
        with pytest.raises(ValueError, match="duplicate"):
            Query(tables=("t", "t"))

    def test_join_must_reference_from_tables(self):
        join = JoinPredicate("a", "x", "ghost", "y")
        with pytest.raises(ValueError, match="missing"):
            Query(tables=("a", "b"), joins=(join,))

    def test_to_sql_round_shape(self):
        query = Query(
            tables=("a", "b"),
            joins=(JoinPredicate("a", "id", "b", "a_id"),),
            where=p("a.v", ">", 3),
        )
        sql = query.to_sql()
        assert sql.startswith("SELECT count(*) FROM a, b WHERE")
        assert "a.id = b.a_id" in sql
        assert "a.v > 3" in sql

    def test_group_by_rendering(self):
        query = Query.single_table("t", group_by=("A", "B"))
        assert query.to_sql().endswith("GROUP BY A, B")

    def test_no_predicates_properties(self):
        query = Query.single_table("t")
        assert query.predicates == ()
        assert query.attributes == ()
        assert query.is_conjunctive()
        assert query.compound_form() == {}
