"""Ablation experiments beyond the paper's tables.

Three design choices DESIGN.md calls out:

* **Partition-count convergence (Lemma 3.2)** — as the per-attribute
  entry count ``n`` grows, feature-vector collisions (different queries,
  different cardinalities, same vector — the information loss of
  Section 2.2's determinism argument) must vanish and accuracy improve
  until learnability limits kick in.
* **Disjunction merge operator** — Algorithm 2 merges branch vectors
  with the entry-wise max; an entry-wise (clipped) sum is the obvious
  alternative.  This ablation quantifies the choice.
* **Linear baselines** — the paper drops linear regression and SVR
  because "their estimates are worse by a significant factor"; this
  ablation reproduces that claim.
"""

from __future__ import annotations

import numpy as np

from repro.estimators import LearnedEstimator
from repro.experiments.common import (
    SMALL,
    ExperimentResult,
    Scale,
    evaluate_estimator,
    get_context,
    qft_factory,
)
from repro.featurize import ConjunctiveEncoding, DisjunctionEncoding
from repro.featurize.analysis import collision_report
from repro.metrics import qerror
from repro.models import GradientBoostingRegressor
from repro.models.linear import LinearSVR, RidgeRegressor

__all__ = ["run_partitions", "run_merge", "run_linear_baselines", "run",
           "run_model_granularity", "run_partitioning_scheme"]


def run_partitions(scale: Scale = SMALL) -> ExperimentResult:
    """Collisions + GB accuracy as the partition count grows (Lemma 3.2)."""
    context = get_context(scale)
    table = context.forest
    train, test = context.conjunctive_workload()
    rows = []
    for entries in (2, 4, 8, 16, 32, 64):
        featurizer = ConjunctiveEncoding(table, max_partitions=entries)
        estimator = LearnedEstimator(
            featurizer, GradientBoostingRegressor(n_estimators=scale.gb_trees)
        ).fit(train.queries, train.cardinalities)
        summary = evaluate_estimator(estimator, test)
        rows.append({
            "entries": entries,
            "collision rate": collision_report(featurizer,
                                               test).collision_rate,
            "mean": summary.mean,
            "median": summary.median,
            "99%": summary.q99,
        })
    return ExperimentResult(
        experiment="ablation-partitions",
        paper_artifact="Lemma 3.2: convergence toward lossless featurization",
        rows=rows,
        notes=(
            "Expected shape: the collision rate decreases monotonically in "
            "the entry count; accuracy improves until the feature vector "
            "outgrows the training budget."
        ),
    )


def run_merge(scale: Scale = SMALL) -> ExperimentResult:
    """Entry-wise max (Algorithm 2) vs clipped sum for branch merging."""
    context = get_context(scale)
    table = context.forest
    train, test = context.mixed_workload()
    rows = []
    for merge in ("max", "sum"):
        featurizer = DisjunctionEncoding(table, max_partitions=scale.partitions,
                                         merge=merge)
        estimator = LearnedEstimator(
            featurizer, GradientBoostingRegressor(n_estimators=scale.gb_trees)
        ).fit(train.queries, train.cardinalities)
        summary = evaluate_estimator(estimator, test)
        rows.append({"merge": merge, "mean": summary.mean,
                     "median": summary.median, "99%": summary.q99,
                     "max": summary.max})
    return ExperimentResult(
        experiment="ablation-merge",
        paper_artifact="Algorithm 2 design choice: entry-wise max merging",
        rows=rows,
        notes="Both merges should be close; max matches OR semantics exactly.",
    )


def run_linear_baselines(scale: Scale = SMALL) -> ExperimentResult:
    """Linear regression / SVR vs GB (the Section 2.2 dismissal).

    Measured under both a lossy featurization (``simple``, where the
    cardinality is far from linear in the features and linear models
    collapse — the regime behind the paper's dismissal) and the
    data-driven ``conjunctive`` featurization, where the appended
    selectivity entries give even a linear model a usable signal (a
    side-effect of near-lossless featurization worth documenting).
    """
    import numpy as np

    from repro.metrics import qerror, summarize

    context = get_context(scale)
    table = context.forest
    train, test = context.conjunctive_workload()
    rows = []
    featurizers = {
        "simple": lambda: qft_factory("simple", table),
        "conjunctive": lambda: ConjunctiveEncoding(
            table, max_partitions=scale.partitions),
    }
    for qft_name, make_featurizer in featurizers.items():
        for name, make_model in (
            ("GB", lambda: GradientBoostingRegressor(
                n_estimators=scale.gb_trees)),
            ("Ridge (log targets)", RidgeRegressor),
            ("Linear SVR (log targets)", LinearSVR),
        ):
            estimator = LearnedEstimator(make_featurizer(), make_model()).fit(
                train.queries, train.cardinalities)
            summary = evaluate_estimator(estimator, test)
            rows.append({"qft": qft_name, "model": name,
                         "mean": summary.mean, "median": summary.median,
                         "99%": summary.q99})
        # Linear regression on *raw* cardinalities — the naive setup the
        # paper's dismissal corresponds to: without the log transform a
        # linear model spends its capacity on the few huge cardinalities
        # and is hopeless under the (relative) q-error.
        featurizer = make_featurizer()
        raw = RidgeRegressor().fit(
            featurizer.featurize_batch(train.queries),
            train.cardinalities,
        )
        estimates = np.maximum(
            raw.predict(featurizer.featurize_batch(test.queries)), 1.0)
        summary = summarize(qerror(test.cardinalities, estimates))
        rows.append({"qft": qft_name, "model": "Ridge (raw targets)",
                     "mean": summary.mean, "median": summary.median,
                     "99%": summary.q99})
    return ExperimentResult(
        experiment="ablation-linear",
        paper_artifact="Section 2.2: linear models are 'worse by a significant factor'",
        rows=rows,
        notes=(
            "Expected shape: raw-target linear regression and the linear "
            "SVR are worse than GB by a large factor (the paper's "
            "dismissal); a log-target ridge on near-lossless features is "
            "surprisingly competitive at this scale — itself evidence for "
            "the featurization-quality thesis."
        ),
    )


def run_model_granularity(scale: Scale = SMALL) -> ExperimentResult:
    """Local-model granularity on JOB-light: per-sub-schema vs. per-table.

    The paper's Section 2.1.2 cites Woltmann et al. [31]: models are only
    needed where the System-R assumptions fail.  This ablation compares
    the full per-sub-schema ensemble (up to ``2^n - 1`` models, join
    labels required) against the hybrid configuration (one model per
    base table, cheap single-table labels, Selinger join composition)
    and the pure histogram baseline.
    """
    from repro.estimators import LocalModelEnsemble, PostgresEstimator
    from repro.estimators.hybrid import HybridEstimator
    from repro.experiments.common import gb_factory

    context = get_context(scale)
    schema = context.imdb
    bench = context.joblight_benchmark()

    def conj_factory(table, attrs):
        return ConjunctiveEncoding(table, attrs,
                                   max_partitions=scale.partitions)

    local = LocalModelEnsemble(schema, conj_factory, gb_factory(scale))
    local.fit(context.joblight_training().queries,
              context.joblight_training().cardinalities)
    hybrid = HybridEstimator(schema, conj_factory, gb_factory(scale))
    hybrid.fit_generated(queries_per_table=scale.queries_per_subschema * 4)
    postgres = PostgresEstimator(schema)

    rows = []
    for name, estimator, models in (
        ("local (per sub-schema)", local, len(local.subschemata)),
        ("hybrid (per base table)", hybrid, len(hybrid.table_models)),
        ("Postgres (no models)", postgres, 0),
    ):
        summary = evaluate_estimator(estimator, bench)
        rows.append({"estimator": name, "models": models,
                     "mean": summary.mean, "median": summary.median,
                     "99%": summary.q99})
    return ExperimentResult(
        experiment="ablation-granularity",
        paper_artifact="Section 2.1.2 / [31]: where are learned models needed?",
        rows=rows,
        notes=(
            "Expected shape: the hybrid matches or beats the histogram "
            "baseline on the median with only n models.  At small "
            "training budgets the hybrid can even beat the full ensemble "
            "(which splits its join-labelled budget over up to 2^n - 1 "
            "models); with abundant training the ensemble wins because "
            "only it can model cross-table correlation."
        ),
    )


def run_partitioning_scheme(scale: Scale = SMALL) -> ExperimentResult:
    """Equal-width vs equi-depth partitions (Section 3.2's histogram hint).

    "For attributes with high skew, a larger n may be necessary.  [...]
    One could also apply sophisticated partitioning techniques from the
    field of histograms."  We compare both layouts at identical
    per-attribute budgets on the forest conjunctive workload under GB.
    """
    from repro.featurize.equidepth import EquiDepthConjunctiveEncoding

    context = get_context(scale)
    table = context.forest
    train, test = context.conjunctive_workload()
    rows = []
    for entries in (8, scale.partitions):
        for scheme, featurizer in (
            ("equal-width", ConjunctiveEncoding(table, max_partitions=entries)),
            ("equi-depth", EquiDepthConjunctiveEncoding(
                table, max_partitions=entries)),
        ):
            estimator = LearnedEstimator(
                featurizer,
                GradientBoostingRegressor(n_estimators=scale.gb_trees),
            ).fit(train.queries, train.cardinalities)
            summary = evaluate_estimator(estimator, test)
            rows.append({"entries": entries, "scheme": scheme,
                         "mean": summary.mean, "median": summary.median,
                         "99%": summary.q99})
    return ExperimentResult(
        experiment="ablation-partitioning",
        paper_artifact="Section 3.2's hint: histogram-style partitioning",
        rows=rows,
        notes=(
            "Expected shape: with few entries, equi-depth spends its "
            "budget where the data lives and wins on skewed attributes; "
            "with a generous budget the layouts converge."
        ),
    )


def run(scale: Scale = SMALL) -> list[ExperimentResult]:
    """Run all five ablations."""
    return [run_partitions(scale), run_merge(scale),
            run_linear_baselines(scale), run_model_granularity(scale),
            run_partitioning_scheme(scale)]
