"""Tests for the SQL parser."""

import pytest

from repro.sql.ast import And, Op, Or, SimplePredicate, UnsupportedQueryError
from repro.sql.parser import (SqlSyntaxError, bind_template,
                              fingerprint_sql, make_template,
                              parse_query, parse_template, parse_where)


class TestParseWhere:
    def test_single_comparison(self):
        expr = parse_where("A > 5")
        assert expr == SimplePredicate("A", Op.GT, 5.0)

    def test_all_operators(self):
        for symbol, op in (("=", Op.EQ), ("<>", Op.NE), ("!=", Op.NE),
                           ("<", Op.LT), ("<=", Op.LE), (">", Op.GT),
                           (">=", Op.GE)):
            expr = parse_where(f"A {symbol} 1")
            assert expr.op is op

    def test_negative_and_float_literals(self):
        assert parse_where("A > -5").value == -5.0
        assert parse_where("A <= 4.25").value == 4.25

    def test_and_precedence_over_or(self):
        expr = parse_where("A > 1 AND A < 5 OR A = 9")
        assert isinstance(expr, Or)
        assert isinstance(expr.children[0], And)

    def test_parentheses_override(self):
        expr = parse_where("A > 1 AND (A < 5 OR A = 9)")
        assert isinstance(expr, And)
        assert isinstance(expr.children[1], Or)

    def test_keywords_case_insensitive(self):
        expr = parse_where("A > 1 and A < 5 Or A = 9")
        assert isinstance(expr, Or)

    def test_rejects_trailing_garbage(self):
        with pytest.raises(SqlSyntaxError, match="trailing"):
            parse_where("A > 1 B")

    def test_rejects_join_in_where_helper(self):
        with pytest.raises(UnsupportedQueryError):
            parse_where("t1.a = t2.b")

    def test_rejects_literal_on_left(self):
        with pytest.raises(SqlSyntaxError):
            parse_where("5 > A")

    def test_rejects_unknown_character(self):
        with pytest.raises(SqlSyntaxError, match="unexpected character"):
            parse_where("A > 5 ; DROP TABLE")


class TestParseQuery:
    def test_minimal_query(self):
        query = parse_query("SELECT count(*) FROM t")
        assert query.tables == ("t",)
        assert query.where is None

    def test_where_clause(self):
        query = parse_query("SELECT count(*) FROM t WHERE A >= 2 AND B <> 7")
        assert len(query.predicates) == 2

    def test_join_extraction(self):
        query = parse_query(
            "SELECT count(*) FROM a, b WHERE a.id = b.a_id AND a.v > 3"
        )
        assert len(query.joins) == 1
        assert query.joins[0].left_table == "a"
        assert query.joins[0].right_column == "a_id"
        assert query.predicates == (SimplePredicate("a.v", Op.GT, 3.0),)

    def test_join_only_query(self):
        query = parse_query("SELECT count(*) FROM a, b WHERE a.id = b.a_id")
        assert query.where is None
        assert len(query.joins) == 1

    def test_group_by(self):
        query = parse_query("SELECT count(*) FROM t GROUP BY A, B")
        assert query.group_by == ("A", "B")

    def test_trailing_semicolon_tolerated(self):
        query = parse_query("SELECT count(*) FROM t WHERE A = 1;")
        assert len(query.predicates) == 1

    def test_join_must_be_top_level(self):
        with pytest.raises(UnsupportedQueryError, match="top-level"):
            parse_query(
                "SELECT count(*) FROM a, b WHERE a.v > 1 OR a.id = b.a_id"
            )

    def test_join_requires_qualified_names(self):
        with pytest.raises(SqlSyntaxError, match="qualified"):
            parse_query("SELECT count(*) FROM a, b WHERE id = a_id")

    def test_non_equi_join_rejected(self):
        with pytest.raises(SqlSyntaxError, match="equi-join"):
            parse_query("SELECT count(*) FROM a, b WHERE a.id < b.a_id")

    def test_paper_example_query(self):
        """The Section 5 example query parses into the expected shape."""
        query = parse_query(
            "SELECT count(*) FROM forest "
            "WHERE A7 >= 160 AND A7 <= 225 AND "
            "A8 >= 45 AND A8 <= 237 AND A8 <> 220 AND A8 <> 186"
        )
        assert query.tables == ("forest",)
        assert len(query.predicates) == 6
        assert query.is_conjunctive()

    def test_paper_mixed_example_structure(self):
        """The Definition 3.3 example (integer-encoded) parses as a mixed query."""
        query = parse_query(
            "SELECT count(*) FROM orders WHERE "
            "(o_orderdate >= 19940101 AND o_orderdate <= 19941231 "
            " AND o_orderdate <> 19940704 "
            " OR o_orderdate >= 19960101 AND o_orderdate <= 19961231 "
            " AND o_orderdate <> 19960704) "
            "AND (o_orderstatus = 2 OR o_orderstatus = 1) "
            "AND (o_totalprice > 1000 AND o_totalprice < 2000)"
        )
        form = query.compound_form()
        assert set(form) == {"o_orderdate", "o_orderstatus", "o_totalprice"}
        assert len(form["o_orderdate"]) == 2
        assert len(form["o_orderstatus"]) == 2
        assert len(form["o_totalprice"]) == 1


class TestRoundTrip:
    def test_sql_round_trip_preserves_structure(self):
        sql = ("SELECT count(*) FROM t WHERE (A >= 1 AND A <= 9 AND A <> 5 "
               "OR A = 42) AND B < 7")
        query = parse_query(sql)
        reparsed = parse_query(query.to_sql())
        assert reparsed.compound_form() == query.compound_form()

    def test_join_query_round_trip(self):
        sql = ("SELECT count(*) FROM a, b WHERE a.id = b.a_id AND a.v > 3 "
               "AND b.w <= 9")
        query = parse_query(sql)
        reparsed = parse_query(query.to_sql())
        assert reparsed.joins == query.joins
        assert reparsed.predicates == query.predicates


class TestStatementTemplates:
    """fingerprint_sql / parse_template / bind_template — the textual
    prepared-statement layer the serve parse cache stands on — and
    make_template, its counterpart for parsed queries."""

    def test_fingerprint_masks_numeric_literals_in_order(self):
        key, literals = fingerprint_sql(
            "SELECT count(*) FROM t WHERE A1 > 5 AND A2 <= -3.5 OR A1 = 40")
        assert key == ("SELECT count(*) FROM t WHERE A1 > ? "
                       "AND A2 <= ? OR A1 = ?")
        assert literals == (5.0, -3.5, 40.0)

    def test_fingerprint_keeps_identifier_digits_and_strings(self):
        key, literals = fingerprint_sql(
            "SELECT count(*) FROM t WHERE name = 'oak 42' AND A1 > 7")
        assert "'oak 42'" in key  # string shape survives, number masked
        assert "A1" in key
        assert literals == (7.0,)

    def test_instances_of_one_statement_share_a_fingerprint(self):
        a, lits_a = fingerprint_sql("SELECT count(*) FROM t WHERE A > 1")
        b, lits_b = fingerprint_sql("SELECT count(*) FROM t WHERE A > 250")
        assert a == b
        assert (lits_a, lits_b) == ((1.0,), (250.0,))

    def test_key_parses_straight_into_the_template(self):
        sql = ("SELECT count(*) FROM t WHERE (A >= 1 AND A <= 9 OR B = 4) "
               "AND C <> -2.5")
        key, literals = fingerprint_sql(sql)
        template = parse_template(key, len(literals))
        assert [p.value for p in template.predicates] == [0.0, 1.0, 2.0, 3.0]
        assert template == make_template(parse_query(sql), literals)
        # One slot more than literals: a '?' of the text itself.
        with pytest.raises(SqlSyntaxError, match="'\\?'"):
            parse_template(key, len(literals) - 1)
        with pytest.raises(SqlSyntaxError, match="'\\?'"):
            parse_query(sql.replace("-2.5", "?"))

    def test_template_rebinds_to_any_instance(self):
        sql = ("SELECT count(*) FROM t WHERE (A >= 1 AND A <= 9 OR B = 4) "
               "AND C <> -2.5")
        _, literals = fingerprint_sql(sql)
        template = make_template(parse_query(sql), literals)
        assert template is not None
        fresh = (42.0, 77.5, -1.0, 0.0)
        expected_sql = ("SELECT count(*) FROM t WHERE (A >= 42 AND A <= 77.5 "
                        "OR B = -1) AND C <> 0")
        assert bind_template(template, fresh) == parse_query(expected_sql)

    def test_template_round_trips_string_predicates(self):
        sql = "SELECT count(*) FROM t WHERE name = 'oak' AND A1 > 5"
        query = parse_query(sql)
        _, literals = fingerprint_sql(sql)
        template = make_template(query, literals)
        assert template is not None
        assert bind_template(template, literals) == query

    def test_literal_count_mismatch_is_uncacheable(self):
        query = parse_query("SELECT count(*) FROM t WHERE A > 1 AND B < 2")
        assert make_template(query, (1.0,)) is None
        assert make_template(query, (1.0, 2.0, 3.0)) is None

    def test_predicate_free_statement(self):
        sql = "SELECT count(*) FROM t"
        query = parse_query(sql)
        template = make_template(query, ())
        assert template is not None
        assert bind_template(template, ()) == query
