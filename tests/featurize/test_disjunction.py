"""Tests for Limited Disjunction Encoding (Algorithm 2)."""

import numpy as np
import pytest

from repro.featurize import (
    ConjunctiveEncoding,
    DisjunctionEncoding,
    GlobalJoinFeaturizer,
)
from repro.sql.ast import MAX_COMPOUND_BRANCHES, UnsupportedQueryError
from repro.sql.parser import parse_where
from repro.workloads import generate_joblight_benchmark
from tests.featurize import reference
from tests.featurize.test_batch_equivalence import plan_encode

H = 0.5


@pytest.fixture(scope="module")
def enc(paper_table):
    return DisjunctionEncoding(paper_table, max_partitions=12,
                               attr_selectivity=False)


def test_equals_conjunctive_on_conjunctions(paper_table, enc):
    """On purely conjunctive queries both encodings coincide (the paper
    relies on this to omit 'complex' from Table 1)."""
    conj = ConjunctiveEncoding(paper_table, max_partitions=12,
                               attr_selectivity=False)
    for sql in ("A < 7", "A >= 0 AND A <= 40 AND B <> 50",
                "A = 3 AND B > 10 AND C = 1"):
        np.testing.assert_array_equal(
            enc.featurize(parse_where(sql)),
            conj.featurize(parse_where(sql)),
        )


def test_merge_is_entrywise_max(enc):
    left = enc.featurize(parse_where("A <= 10"))
    right = enc.featurize(parse_where("A >= 30"))
    union = enc.featurize(parse_where("A <= 10 OR A >= 30"))
    np.testing.assert_array_equal(union, np.maximum(left, right))


def test_disjunction_only_widens(enc):
    base = enc.featurize(parse_where("A <= 10"))
    widened = enc.featurize(parse_where("A <= 10 OR A = 30"))
    assert np.all(widened >= base - 1e-12)


def test_overlapping_branches_idempotent(enc):
    once = enc.featurize(parse_where("A <= 10"))
    repeated = enc.featurize(parse_where("A <= 10 OR A <= 10"))
    np.testing.assert_array_equal(once, repeated)


def test_selectivity_entry_merged_with_max(paper_table):
    enc = DisjunctionEncoding(paper_table, max_partitions=12,
                              attr_selectivity=True)
    slices = enc.attribute_slices()
    vector = enc.featurize(parse_where("A <= 10 OR A >= 30"))
    sel_left = enc.featurize(parse_where("A <= 10"))[slices["A"]][-1]
    sel_right = enc.featurize(parse_where("A >= 30"))[slices["A"]][-1]
    assert vector[slices["A"]][-1] == pytest.approx(max(sel_left, sel_right))


def test_cross_attribute_disjunction_rejected(enc):
    with pytest.raises(UnsupportedQueryError, match="Definition 3.3"):
        enc.featurize(parse_where("A > 5 OR B > 5"))


def test_sum_merge_ablation(paper_table):
    enc_sum = DisjunctionEncoding(paper_table, max_partitions=12,
                                  attr_selectivity=False, merge="sum")
    vector = enc_sum.featurize(parse_where("A <= 10 OR A >= 30"))
    # Sum merge is clipped at 1 and differs from max only where branches
    # overlap — here they don't, so it must equal the max merge.
    enc_max = DisjunctionEncoding(paper_table, max_partitions=12,
                                  attr_selectivity=False, merge="max")
    np.testing.assert_array_equal(
        vector, enc_max.featurize(parse_where("A <= 10 OR A >= 30")))


def test_sum_merge_clips_at_one(paper_table):
    enc_sum = DisjunctionEncoding(paper_table, max_partitions=12,
                                  attr_selectivity=False, merge="sum")
    vector = enc_sum.featurize(parse_where("A <= 40 OR A <= 41"))
    assert vector.max() <= 1.0


def test_invalid_merge_rejected(paper_table):
    with pytest.raises(ValueError, match="merge"):
        DisjunctionEncoding(paper_table, merge="avg")


def test_non_dnf_mixed_query_supported(enc):
    """Mixed queries need not be in CNF/DNF (Definition 3.3 remark)."""
    vector = enc.featurize(parse_where(
        "(A = 1 OR A = 2) AND (A < 40 OR A > 45) AND B >= 10"))
    assert vector.shape == (enc.feature_length,)


class TestBranchCap:
    """Compound predicates expand to at most MAX_COMPOUND_BRANCHES
    branches; one more pair of ORs is a typed error, not seconds of
    cross product."""

    @staticmethod
    def or_pairs(k):
        return parse_where(" AND ".join(f"(A > {i} OR A < {-i})"
                                        for i in range(k)))

    @pytest.mark.parametrize("merge", ["max", "sum"])
    def test_widest_compound_matches_oracle(self, paper_table, merge):
        enc = DisjunctionEncoding(paper_table, max_partitions=12,
                                  merge=merge)
        queries = [self.or_pairs(MAX_COMPOUND_BRANCHES.bit_length() - 1)]
        expected = reference.matrix(enc, queries)
        np.testing.assert_array_equal(enc.featurize_batch(queries), expected)
        np.testing.assert_array_equal(plan_encode(enc, queries), expected)

    def test_one_more_pair_is_rejected(self, enc):
        expr = self.or_pairs(MAX_COMPOUND_BRANCHES.bit_length())
        with pytest.raises(UnsupportedQueryError, match="branches"):
            enc.featurize_batch([expr])
        with pytest.raises(UnsupportedQueryError, match="branches"):
            enc.compile_plan(*reference.plan_template(expr))


class TestAttributeResolution:
    """Table-qualified attributes resolve like their bare names."""

    SPELLINGS = [
        ("t.A > 5", "A > 5"),
        ("t.A > 5 AND A < 9", "A > 5 AND A < 9"),
        ("t.A > 5 OR A < 2", "A > 5 OR A < 2"),
        ("(t.A > 5 OR t.A < 2) AND B <= 40 AND t.B <> 7",
         "(A > 5 OR A < 2) AND B <= 40 AND B <> 7"),
    ]

    @pytest.mark.parametrize("merge", ["max", "sum"])
    def test_qualified_query_encodes_like_bare_query(self, paper_table,
                                                     merge):
        enc = DisjunctionEncoding(paper_table, max_partitions=12,
                                  merge=merge)
        qualified = [parse_where(q) for q, _ in self.SPELLINGS]
        bare = [parse_where(b) for _, b in self.SPELLINGS]
        expected = enc.featurize_batch(bare)
        assert not np.array_equal(expected[0],
                                  enc.featurize_batch([None])[0])
        for i, expr in enumerate(qualified):
            np.testing.assert_array_equal(enc.featurize(expr), expected[i])
            plan = enc.compile_plan(*reference.plan_template(expr))
            np.testing.assert_array_equal(
                enc.encode_with_plans(
                    [plan], [reference.query_shape(expr)[1]])[0],
                expected[i])
        np.testing.assert_array_equal(enc.featurize_batch(qualified),
                                      expected)

    @pytest.mark.parametrize("sql", [
        "nosuchcol > 3", "t.nosuchcol > 3", "other.A > 3",
        "A < 9 AND (nosuchcol = 1 OR nosuchcol = 2)",
    ])
    def test_unknown_attribute_raises_key_error(self, enc, sql):
        expr = parse_where(sql)
        with pytest.raises(KeyError, match="unknown attribute"):
            enc.featurize(expr)
        with pytest.raises(KeyError, match="unknown attribute"):
            enc.featurize_batch([parse_where("A < 9"), expr])
        with pytest.raises(KeyError, match="unknown attribute"):
            enc.compile_plan(*reference.plan_template(expr))

    def test_joblight_encodes_like_conjunctive(self, imdb_schema):
        """JOB-light qualifies every attribute with its table; the paper
        states both encodings give equal vectors there (Table 1)."""
        queries = generate_joblight_benchmark(imdb_schema).queries
        assert len(queries) == 70

        def build(cls):
            return GlobalJoinFeaturizer(
                imdb_schema, lambda table, attrs: cls(table, attrs,
                                                      max_partitions=8))

        np.testing.assert_array_equal(
            build(DisjunctionEncoding).featurize_batch(queries),
            build(ConjunctiveEncoding).featurize_batch(queries))
