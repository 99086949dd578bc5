"""Runtime contracts of the ``Featurizer`` surface.

* Every public QFT implements the whole abstract surface.  ``abc``
  refuses to instantiate a partial implementation; this test turns that
  first-use failure into a tier-1 one.
* Every encode entry point — ``featurize``, ``featurize_batch`` and
  ``encode_with_plans`` — checks its kernel's matrix
  (``Featurizer._check_encoded``): float64, shape
  ``(n_queries, feature_length)``.  A kernel that drifts to float32 or
  to the wrong width raises instead of handing a model a silently
  different feature space (Definition 3.1).
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

import repro.featurize
from repro.featurize import (
    BY_PAPER_LABEL,
    ConjunctiveEncoding,
    DisjunctionEncoding,
    Featurizer,
    RangeEncoding,
    SingularEncoding,
)
from tests.featurize import reference


def test_exported_featurizers_implement_the_abstract_surface():
    exported = [getattr(repro.featurize, name)
                for name in repro.featurize.__all__]
    qfts = [obj for obj in exported
            if inspect.isclass(obj) and issubclass(obj, Featurizer)
            and obj is not Featurizer]
    assert set(BY_PAPER_LABEL.values()) <= set(qfts)
    abstract = [cls.__name__ for cls in qfts if inspect.isabstract(cls)]
    assert abstract == [], f"abstract public featurizers: {abstract}"


def entry_points(featurizer, queries):
    """Each encode entry point, as a zero-argument call."""
    exprs = [featurizer.extract_expr(q) for q in queries]
    plans = [featurizer.compile_plan(*reference.plan_template(e))
             for e in exprs]
    literals = [reference.query_shape(e)[1] for e in exprs]
    return {
        "featurize": lambda: featurizer.featurize(queries[0])[None, :],
        "featurize_batch": lambda: featurizer.featurize_batch(queries),
        "encode_with_plans": lambda: featurizer.encode_with_plans(
            plans, literals),
    }


@pytest.fixture(scope="module")
def qft_cases(small_forest, conjunctive_workload, mixed_workload):
    """(label, featurizer, queries) for every paper QFT."""
    conjunctive = conjunctive_workload.queries[:8]
    return [
        ("simple", SingularEncoding(small_forest), conjunctive),
        ("range", RangeEncoding(small_forest), conjunctive),
        ("conjunctive", ConjunctiveEncoding(small_forest, max_partitions=16),
         conjunctive),
        ("complex", DisjunctionEncoding(small_forest, max_partitions=16),
         mixed_workload.queries[:8]),
    ]


def test_kernels_honour_the_matrix_contract(qft_cases):
    for label, featurizer, queries in qft_cases:
        for name, call in entry_points(featurizer, queries).items():
            matrix = call()
            assert matrix.dtype == np.float64, (label, name)
            assert matrix.shape[1] == featurizer.feature_length, (label, name)


@pytest.mark.parametrize("drift", ["float32", "narrow"])
def test_drifting_kernel_raises_from_every_entry_point(qft_cases, drift,
                                                       monkeypatch):
    for _, featurizer, queries in qft_cases:
        kernel = featurizer._featurize_compiled

        def drifted(batch, kernel=kernel):
            matrix = kernel(batch)
            if drift == "float32":
                return matrix.astype(np.float32)
            return matrix[:, :-1]

        monkeypatch.setattr(featurizer, "_featurize_compiled", drifted)
        for call in entry_points(featurizer, queries).values():
            with pytest.raises(AssertionError, match="expected float64"):
                call()
        monkeypatch.undo()
