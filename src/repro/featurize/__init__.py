"""Query featurization techniques (QFTs) — the paper's core contribution.

A QFT encodes a query into a fixed-length numeric *feature vector* that
serves as input to a machine-learning cardinality model.  This package
implements the four QFTs the paper evaluates (Section 5 "Abbreviations"):

====================  =============================  ======================
paper label           class                          scope
====================  =============================  ======================
``simple``            :class:`SingularEncoding`      one predicate/attribute
``range``             :class:`RangeEncoding`         one range/attribute
``conjunctive``       :class:`ConjunctiveEncoding`   arbitrary conjunctions
``complex``           :class:`DisjunctionEncoding`   mixed queries (Def 3.3)
====================  =============================  ======================

plus the Section 6 extensions (string-prefix buckets, GROUP BY vectors)
and the join-query composition layer used by local and global models.
"""

from repro.featurize.base import Featurizer, LosslessnessError
from repro.featurize.batch import CompiledPlan, PredicateBatch
from repro.featurize.conjunctive import ConjunctiveEncoding
from repro.featurize.disjunction import DisjunctionEncoding
from repro.featurize.equidepth import EquiDepthConjunctiveEncoding
from repro.featurize.joins import (
    GlobalJoinFeaturizer,
    JoinQueryFeaturizer,
    TableSetVector,
)
from repro.featurize.range_encoding import RangeEncoding
from repro.featurize.singular import SingularEncoding

__all__ = [
    "Featurizer",
    "LosslessnessError",
    "PredicateBatch",
    "CompiledPlan",
    "SingularEncoding",
    "RangeEncoding",
    "ConjunctiveEncoding",
    "DisjunctionEncoding",
    "EquiDepthConjunctiveEncoding",
    "JoinQueryFeaturizer",
    "GlobalJoinFeaturizer",
    "TableSetVector",
    "BY_PAPER_LABEL",
]

#: Paper plot label -> featurizer class (Section 5 "Abbreviations").
BY_PAPER_LABEL = {
    "simple": SingularEncoding,
    "range": RangeEncoding,
    "conjunctive": ConjunctiveEncoding,
    "complex": DisjunctionEncoding,
}
