"""The serving pipeline: resolve to prepared statements, then execute.

Covers which estimators the pipeline serves (a learned estimator with a
single-table featurizer; anything else is refused at construction),
statements rejected once at resolve, bitwise equivalence of the planned
execute against ``estimate_batch``, statements carrying their own
compiled plan in the parse cache, the pipeline's cache interplay (with
the estimate cache off, and under the shipped defaults where it is on),
and error-contract parity.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.featurize import ConjunctiveEncoding, JoinQueryFeaturizer
from repro.featurize.base import Featurizer, LosslessnessError
from repro.featurize.batch import CompiledPlan
from repro.serve.fused import EstimatePipeline, Statement
from repro.serve.server import EstimationService
from repro.sql.ast import And, Or, SimplePredicate
from repro.sql.parser import SqlSyntaxError, fingerprint_sql, parse_query


def perturb(query, delta):
    """A same-shape instance of ``query`` with shifted literals."""

    def rebind(expr):
        if isinstance(expr, SimplePredicate):
            return SimplePredicate(expr.attribute, expr.op,
                                   expr.value + delta)
        if isinstance(expr, And):
            return And([rebind(child) for child in expr.children])
        if isinstance(expr, Or):
            return Or([rebind(child) for child in expr.children])
        return expr

    if query.where is None:
        return query
    return replace(query, where=rebind(query.where))


@pytest.fixture()
def instances(conjunctive_workload):
    """Templates plus literal-shifted instances: repeating shapes."""
    templates = conjunctive_workload.queries[:8]
    out = []
    for delta in (0.0, 1.0, 2.0):
        out.extend(perturb(q, delta) for q in templates)
    return out


@pytest.fixture()
def uncached_service(serve_estimator):
    """Estimate cache off, so every request runs the pipeline."""
    service = EstimationService(serve_estimator, cache_size=0)
    yield service
    service.close()


class NoFeatures:
    """A fitted estimator's featurizer without ``estimate_features``."""

    def __init__(self, inner) -> None:
        self.featurizer = inner.featurizer
        self.estimate_batch = inner.estimate_batch


class JoinFeaturized:
    """``estimate_features`` over a join featurizer, which is no
    single-table :class:`Featurizer`."""

    def __init__(self, inner, imdb_schema) -> None:
        self.featurizer = JoinQueryFeaturizer(
            imdb_schema, ("title",), lambda table, attributes:
            ConjunctiveEncoding(table, attributes, max_partitions=8))
        self.estimate_features = inner.estimate_features


def rejection(call) -> tuple[type, str]:
    """The class and message of the exception ``call()`` raises."""
    with pytest.raises((ValueError, KeyError)) as error:
        call()
    return type(error.value), str(error.value)


class TestEligibility:
    def test_learned_estimator_gets_fused_path(self, serve_estimator,
                                               instances):
        pipeline = EstimatePipeline(serve_estimator)
        (statement, literals), = pipeline.resolve([instances[0].to_sql()])
        assert isinstance(statement, Statement)
        assert isinstance(statement.plan, CompiledPlan)
        assert literals == fingerprint_sql(instances[0].to_sql())[1]

    def test_unplannable_estimator_is_refused(self, serve_estimator,
                                              imdb_schema):
        batchers = {t for t in threading.enumerate()
                    if t.name == "repro-serve-batcher"}
        for estimator in (serve_estimator.model, NoFeatures(serve_estimator),
                          JoinFeaturized(serve_estimator, imdb_schema)):
            for construct in (EstimatePipeline, EstimationService):
                with pytest.raises(TypeError, match="cannot serve"):
                    construct(estimator)
        # A refused service starts no batcher thread.
        assert {t for t in threading.enumerate()
                if t.name == "repro-serve-batcher"} == batchers

    def test_rejected_statement_raises_at_resolve(self, serve_estimator,
                                                  monkeypatch):
        # A disjunction is outside Universal Conjunction Encoding: the
        # statement is stored with its rejection, and every instance,
        # first-seen or seen, raises it afresh at resolve.
        compiles = count_compiles(monkeypatch)
        executed: list = []
        monkeypatch.setattr(EstimatePipeline, "execute",
                            lambda self, requests: executed.append(requests))
        service = EstimationService(serve_estimator, cache_size=0)
        raised = []
        try:
            for sql in ("SELECT count(*) FROM forest WHERE A1 > 5 OR A1 < 2",
                        "SELECT count(*) FROM forest WHERE A1 > 7 OR A1 < 1"):
                expected = rejection(lambda: serve_estimator.estimate_batch(
                    [parse_query(sql)]))
                assert expected[0] is LosslessnessError
                for call in (lambda: service.estimate(sql),
                             lambda: service.estimate_many_sql([sql]),
                             lambda: service.feedback(sql, 10.0)):
                    with pytest.raises(LosslessnessError) as error:
                        call()
                    assert (type(error.value), str(error.value)) == expected
                    raised.append(error.value)
        finally:
            service.close()
        assert executed == []
        assert len(compiles) == 1
        assert len({id(error) for error in raised}) == len(raised)
        fingerprint, _ = fingerprint_sql(
            "SELECT count(*) FROM forest WHERE A1 > 5 OR A1 < 2")
        statement = service.parse_cache.lookup(fingerprint)
        assert statement.plan is None
        assert statement.rejection[0] is LosslessnessError


def count_compiles(monkeypatch) -> list:
    """Record every ``compile_plan`` call from here on."""
    calls: list = []
    original = Featurizer.compile_plan

    def counting(self, template, n_literals):
        calls.append(template)
        return original(self, template, n_literals)

    monkeypatch.setattr(Featurizer, "compile_plan", counting)
    return calls


class TestFusedEquivalence:
    def test_estimate_batch_bitwise_identical(self, serve_estimator,
                                              instances):
        pipeline = EstimatePipeline(serve_estimator)
        sqls = [q.to_sql() for q in instances]
        expected = serve_estimator.estimate_batch(instances)
        # Cold (first-seen statements) and warm (every one cached).
        for _ in range(2):
            np.testing.assert_array_equal(
                pipeline.execute(pipeline.resolve(sqls)), expected)

    def test_statement_compiles_its_plan_once(self, serve_estimator,
                                              instances, monkeypatch):
        compiles = count_compiles(monkeypatch)
        pipeline = EstimatePipeline(serve_estimator)
        sqls = [q.to_sql() for q in instances]
        statements = {fingerprint_sql(sql)[0] for sql in sqls}
        # One batch holding three instances of each statement …
        pipeline.execute(pipeline.resolve(sqls))
        assert len(compiles) == len(statements)
        # … and later batches reuse the plans the statements carry.
        pipeline.execute(pipeline.resolve(sqls))
        pipeline.execute(pipeline.resolve(sqls[::-1]))
        assert len(compiles) == len(statements)


class TestPlannedLeg:
    def test_sql_batch_bitwise_identical_to_parse_path(
            self, uncached_service, serve_estimator, instances):
        sqls = [q.to_sql() for q in instances]
        first = uncached_service.estimate_many_sql(sqls)
        # Second call: every statement is cached and planned.
        second = uncached_service.estimate_many_sql(sqls)
        direct = serve_estimator.estimate_batch(instances)
        np.testing.assert_array_equal(np.asarray(first), direct)
        np.testing.assert_array_equal(np.asarray(second), direct)

    def test_statements_are_planned_in_parse_cache(self, uncached_service,
                                                   instances):
        sqls = [q.to_sql() for q in instances]
        uncached_service.estimate_many_sql(sqls)
        fingerprint, literals = fingerprint_sql(sqls[0])
        statement = uncached_service.parse_cache.lookup(fingerprint)
        assert statement is not None
        assert isinstance(statement.plan, CompiledPlan)
        assert statement.plan.n_literals == len(literals)

    def test_planned_instances_skip_reparsing(self, uncached_service,
                                              instances):
        sqls = [q.to_sql() for q in instances]
        uncached_service.estimate_many_sql(sqls)
        before = uncached_service.parse_cache.stats()
        uncached_service.estimate_many_sql(sqls)
        after = uncached_service.parse_cache.stats()
        assert after["hits"] - before["hits"] == len(sqls)
        assert after["misses"] == before["misses"]

    def test_estimate_cache_hits_repeated_batch(
            self, serve_estimator, instances):
        service = EstimationService(serve_estimator, cache_size=128)
        try:
            sqls = [q.to_sql() for q in instances]
            first = service.estimate_many_sql(sqls)
            hits_before = service.cache.stats()["hits"]
            second = service.estimate_many_sql(sqls)
            assert first == second
            assert (service.cache.stats()["hits"]
                    >= hits_before + len(sqls))
        finally:
            service.close()

    def test_first_seen_and_planned_mix_in_one_batch(
            self, uncached_service, serve_estimator, conjunctive_workload,
            instances):
        # Warm the first 8 statements, then mix in 4 never-seen ones.
        warm = [q.to_sql() for q in instances]
        uncached_service.estimate_many_sql(warm)
        fresh = conjunctive_workload.queries[8:12]
        mixed = instances[:8] + list(fresh)
        got = uncached_service.estimate_many_sql(
            [q.to_sql() for q in mixed])
        np.testing.assert_array_equal(
            np.asarray(got), serve_estimator.estimate_batch(mixed))

    def test_unknown_attribute_raises_like_parse_path(self,
                                                      uncached_service):
        bad = "SELECT count(*) FROM forest WHERE no_such_column > 3"
        with pytest.raises(KeyError):
            uncached_service.estimate_many_sql([bad])
        # The statement is cached with its rejection; the retry raises
        # too.
        with pytest.raises(KeyError):
            uncached_service.estimate_many_sql([bad])

    def test_raw_question_mark_on_a_seen_statement(self, serve_estimator):
        # "A1 > ?" shares its fingerprint with "A1 > 2500"; the '?' is
        # still a syntax error once the statement is cached.
        seen = "SELECT count(*) FROM forest WHERE A1 > 2500"
        raw = "SELECT count(*) FROM forest WHERE A1 > ?"
        pipeline = EstimatePipeline(serve_estimator)
        pipeline.resolve([seen])
        for batch in ([raw], [seen, raw]):
            with pytest.raises(SqlSyntaxError, match="'\\?'"):
                pipeline.resolve(batch)
        with pytest.raises(SqlSyntaxError, match="'\\?'"):
            EstimatePipeline(serve_estimator).resolve([seen, raw])

    def test_wrong_table_raises_value_error(self, uncached_service):
        bad = "SELECT count(*) FROM elsewhere WHERE A > 3"
        with pytest.raises(ValueError):
            uncached_service.estimate_many_sql([bad])

    def test_empty_batch(self, uncached_service):
        assert uncached_service.estimate_many_sql([]) == []


def counter(name: str) -> float:
    """A global-registry counter's value (0 before its first use)."""
    metric = obs.get_registry().snapshot().get(name)
    return metric["value"] if metric else 0.0


@pytest.fixture()
def shipped_service(serve_estimator):
    """The shipped defaults: estimate and parse caches both on."""
    service = EstimationService(serve_estimator)
    yield service
    service.close()


class TestShippedDefaults:
    """The planned leg runs behind the SQL-keyed estimate cache."""

    def test_mixed_batch_bitwise_on_first_and_second_call(
            self, shipped_service, serve_estimator, conjunctive_workload):
        templates = conjunctive_workload.queries[:8]
        # First call (cold): first-seen statements plus an exact repeat
        # inside the batch.
        first_batch = templates + templates[:2]
        first = shipped_service.estimate_many_sql(
            [q.to_sql() for q in first_batch])
        np.testing.assert_array_equal(
            np.asarray(first), serve_estimator.estimate_batch(first_batch))
        # Second call: exact repeats of the first, new instances of its
        # statements, and first-seen statements.
        repeats = templates[:4]
        seen_instances = [perturb(q, 3.0) for q in templates[4:]]
        fresh = conjunctive_workload.queries[8:12]
        second_batch = repeats + seen_instances + list(fresh)
        parse_before = shipped_service.parse_cache.stats()
        estimate_before = shipped_service.cache.stats()
        second = shipped_service.estimate_many_sql(
            [q.to_sql() for q in second_batch])
        np.testing.assert_array_equal(
            np.asarray(second),
            serve_estimator.estimate_batch(second_batch))
        parse_after = shipped_service.parse_cache.stats()
        estimate_after = shipped_service.cache.stats()
        # The repeats hit the estimate cache and never reach the parse
        # cache; the seen instances hit the parse cache.
        assert estimate_after["hits"] - estimate_before["hits"] \
            == len(repeats)
        assert parse_after["hits"] - parse_before["hits"] \
            == len(seen_instances)
        assert parse_after["misses"] - parse_before["misses"] == len(fresh)

    def test_each_batch_moves_cache_counters_by_its_size(
            self, shipped_service, instances):
        sqls = [q.to_sql() for q in instances]
        for batch in (sqls[:8], sqls, sqls[4:20], sqls[:1]):
            before = (counter("serve.cache.hits")
                      + counter("serve.cache.misses"))
            shipped_service.estimate_many_sql(batch)
            after = (counter("serve.cache.hits")
                     + counter("serve.cache.misses"))
            assert after - before == len(batch)

    def test_unknown_attribute_raises_and_stores_nothing(
            self, shipped_service, instances):
        good = [q.to_sql() for q in instances[:8]]
        shipped_service.estimate_many_sql(good)
        stored = len(shipped_service.cache)
        unseen = perturb(instances[0], 7.0).to_sql()
        bad = "SELECT count(*) FROM forest WHERE no_such_column > 3"
        with pytest.raises(KeyError):
            shipped_service.estimate_many_sql(good + [unseen, bad])
        assert len(shipped_service.cache) == stored
        hits_before = shipped_service.cache.stats()["hits"]
        assert shipped_service.cache.lookup(unseen) is None
        assert shipped_service.cache.stats()["hits"] == hits_before

    def test_single_estimate_hit_skips_the_parser(self, shipped_service,
                                                  serve_estimator,
                                                  instances):
        sql = instances[0].to_sql()
        value, cached = shipped_service.estimate(sql)
        assert cached is False
        assert value == serve_estimator.estimate(instances[0])
        before = shipped_service.parse_cache.stats()
        again, cached = shipped_service.estimate(sql)
        assert cached is True and again == value
        after = shipped_service.parse_cache.stats()
        assert (after["hits"], after["misses"]) \
            == (before["hits"], before["misses"])
