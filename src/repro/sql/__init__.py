"""SQL substrate: predicate ASTs, a parser, and a counting executor.

The paper consumes ``SELECT count(*)`` queries with selection predicates
(conjunctions, and per-attribute disjunctions for *mixed queries*) and
key/foreign-key joins.  This subpackage provides:

* :mod:`repro.sql.ast` — the query representation all featurizers and
  estimators consume, including normalisation into the paper's
  Definition 3.3 *mixed query* form.
* :mod:`repro.sql.parser` — a descent parser from SQL text.
* :mod:`repro.sql.executor` — a vectorised executor that computes *true*
  result cardinalities (the training labels).
"""

from repro.sql.ast import (
    And,
    BoolExpr,
    CompoundForm,
    JoinPredicate,
    Op,
    Or,
    Query,
    SimplePredicate,
    UnsupportedQueryError,
)
from repro.sql.ast import LikePredicate, StringPredicate
from repro.sql.builder import col, query
from repro.sql.executor import cardinality, selection_mask
from repro.sql.strings import desugar_strings
from repro.sql.parser import parse_query, parse_where

__all__ = [
    "And",
    "BoolExpr",
    "CompoundForm",
    "JoinPredicate",
    "Op",
    "Or",
    "Query",
    "SimplePredicate",
    "UnsupportedQueryError",
    "cardinality",
    "selection_mask",
    "parse_query",
    "parse_where",
    "col",
    "query",
    "StringPredicate",
    "LikePredicate",
    "desugar_strings",
]
