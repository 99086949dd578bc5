"""Equation 4 across processes: a seeded pipeline is hash-seed independent.

Featurization must be a deterministic function of the query, and every
stochastic stage threads a seeded ``np.random.Generator``.  Iterating a
``set`` (or anything else ordered by string hashes) anywhere on the
way makes the output depend on ``PYTHONHASHSEED`` instead, which no
in-process test can see.  This test runs one seeded pipeline — data,
labelled workloads, all four QFTs, GB and NN fit/predict, join-workload
labels — in two interpreters with different hash seeds and compares
digests of everything it produced.

Run as a script, this file prints the pipeline digest.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def pipeline_digest() -> str:
    """sha256 over every artifact of one small seeded pipeline."""
    import numpy as np

    from repro.data.forest import generate_forest
    from repro.data.imdb import generate_imdb
    from repro.featurize import BY_PAPER_LABEL
    from repro.models.gradient_boosting import GradientBoostingRegressor
    from repro.models.neural_net import NeuralNetRegressor
    from repro.workloads import (
        generate_conjunctive_workload,
        generate_mixed_workload,
    )
    from repro.workloads.joblight import generate_balanced_training

    digest = hashlib.sha256()

    def feed(*parts) -> None:
        for part in parts:
            if isinstance(part, np.ndarray):
                digest.update(np.ascontiguousarray(part).tobytes())
            else:
                digest.update(repr(part).encode())

    table = generate_forest(rows=3_000, seed=7)
    feed(table.column_names, *(column.values for column in table.columns))
    workloads = {"conjunctive": generate_conjunctive_workload(
                     table, 150, seed=8),
                 "mixed": generate_mixed_workload(table, 150, seed=9)}
    for workload in workloads.values():
        feed([q.to_sql() for q in workload.queries], workload.cardinalities)
    features = {}
    for label, qft in BY_PAPER_LABEL.items():
        featurizer = qft(table)
        workload = workloads["mixed" if label == "complex"
                             else "conjunctive"]
        features[label] = featurizer.featurize_batch(workload.queries)
        feed(label, features[label])
    targets = np.log(workloads["mixed"].cardinalities)
    for model in (GradientBoostingRegressor(n_estimators=20, random_state=10),
                  NeuralNetRegressor(epochs=3, random_state=11)):
        model.fit(features["complex"], targets)
        feed(type(model).__name__, model.predict(features["complex"]))
    schema = generate_imdb(title_rows=600, seed=12)
    joins = generate_balanced_training(schema, 3, seed=13)
    feed([q.to_sql() for q in joins.queries], joins.cardinalities)
    return digest.hexdigest()


def test_pipeline_digest_is_hash_seed_independent():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    runs = [subprocess.Popen([sys.executable, __file__],
                             env={**env, "PYTHONHASHSEED": seed},
                             stdout=subprocess.PIPE, text=True)
            for seed in ("0", "1")]
    digests = [run.communicate(timeout=300)[0].strip() for run in runs]
    assert all(run.returncode == 0 for run in runs)
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


if __name__ == "__main__":
    print(pipeline_digest())
