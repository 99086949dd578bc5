"""A literal that overflows a float encodes like a finite one.

``fingerprint_sql`` reads ``A1 > 9…9`` (400 digits) as ``inf``.  No QFT
may cast ±inf to an integer partition: numpy warns ``invalid value
encountered in cast`` and leaves the result undefined.  The row must
equal the one for a 300-digit literal, which is finite and beyond every
domain all the same.
"""

from __future__ import annotations

import warnings

import pytest

from repro.featurize import BY_PAPER_LABEL
from repro.featurize.equidepth import EquiDepthConjunctiveEncoding
from repro.sql.parser import parse_query

QFTS = {**BY_PAPER_LABEL, "equidepth": EquiDepthConjunctiveEncoding}
OPS = ["=", "<>", "<", "<=", ">", ">="]


@pytest.fixture(scope="module")
def featurizers(small_forest):
    return {label: cls(small_forest) for label, cls in QFTS.items()}


@pytest.mark.parametrize("label", sorted(QFTS))
@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("sign", ["", "-"])
def test_overflowing_literal_encodes_like_a_finite_one(featurizers, label,
                                                       op, sign):
    featurizer = featurizers[label]

    def row(digits: int):
        return featurizer.featurize(parse_query(
            f"SELECT count(*) FROM forest WHERE A1 {op} {sign}"
            + "9" * digits))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        overflowing = row(400)
    assert overflowing.tobytes() == row(300).tobytes()
