"""Differential test of the one serving pipeline.

A seeded generator spells SQL statements the way clients do: exact
repeats, new literal instances of seen statements, first-seen
statements, and every literal spelling the parser accepts (``5``,
``5.0``, ``05``, ``-3``).  Among them are statements the featurizer
rejects: a disjunction, a disjunction across attributes, an unknown
attribute and a wrong table.  Each of the service's entry points —
``estimate`` (through the micro-batcher), ``estimate_many_sql`` and
``feedback(estimate=None)`` — must answer every statement
bitwise-equal to the estimator's model applied to the oracle encoding
(:mod:`tests.featurize.reference`) of ``parse_query(sql)``, or raise
the class and message ``estimate_batch([parse_query(sql)])`` raises,
for conjunctive statements under Universal Conjunction Encoding and
mixed AND/OR statements under Limited Disjunction Encoding, with the
estimate cache at its shipped default and disabled.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.estimators import LearnedEstimator
from repro.featurize import ConjunctiveEncoding, DisjunctionEncoding
from repro.featurize.base import Featurizer
from repro.models import GradientBoostingRegressor
from repro.serve.server import EstimationService
from repro.sql.parser import (bind_template, fingerprint_sql,
                              make_template, parse_query, parse_template)
from tests.featurize import reference as oracle

#: Statements per generated stream.
STREAM_LENGTH = 72

#: Statements outside a QFT's query class or the table's attributes.
#: Universal Conjunction Encoding rejects all four; Limited Disjunction
#: Encoding takes the first and rejects the other three.
REJECTED = [
    "SELECT count(*) FROM forest WHERE A1 > 2500 OR A1 < 100",
    "SELECT count(*) FROM forest WHERE A1 > 2500 OR A2 < 100",
    "SELECT count(*) FROM forest WHERE nosuchcol > 3 AND A1 < 3000",
    "SELECT count(*) FROM elsewhere WHERE A1 > 3",
]


def spell(value: float, rng: np.random.Generator) -> str:
    """One of the spellings the parser reads as ``value`` (integral)."""
    whole = int(value)
    spellings = [str(whole), f"{whole}.0"]
    if whole >= 0:
        spellings.append(f"0{whole}")
    return spellings[int(rng.integers(len(spellings)))]


def render(fingerprint: str, values, rng: np.random.Generator) -> str:
    """Fill a fingerprint's ``?`` slots with spelled literals."""
    parts = fingerprint.split("?")
    pieces = [parts[0]]
    for value, part in zip(values, parts[1:]):
        pieces.append(spell(value, rng))
        pieces.append(part)
    return "".join(pieces)


def statement_stream(queries, seed: int) -> list[str]:
    """A seeded client stream over the statements of ``queries``, with
    the :data:`REJECTED` statements among the first seen."""
    rng = np.random.default_rng(seed)
    sqls = [q.to_sql() for q in queries]
    for position, sql in enumerate(REJECTED):
        sqls.insert(2 * position + 1, sql)
    bases = [fingerprint_sql(sql) for sql in sqls]
    seen: list[int] = []
    sent: list[str] = []
    for _ in range(STREAM_LENGTH):
        kind = rng.integers(4) if seen else 0
        if kind == 0 and len(seen) < len(bases):
            # A first-seen statement with its own literals.
            index = len(seen)
            seen.append(index)
            fingerprint, values = bases[index]
        elif kind == 1 and sent:
            # An exact repeat of something already sent.
            sent.append(sent[int(rng.integers(len(sent)))])
            continue
        else:
            # A new literal instance of a seen statement; one literal
            # may turn negative.
            fingerprint, values = bases[seen[int(rng.integers(len(seen)))]]
            values = [v + float(rng.integers(-3, 4)) for v in values]
            if values and rng.random() < 0.3:
                values[int(rng.integers(len(values)))] = -3.0
        sent.append(render(fingerprint, values, rng))
    return sent


@pytest.fixture(scope="module", params=["conjunctive", "mixed"])
def case(request, small_forest, conjunctive_workload, mixed_workload):
    """``(estimator, queries)``: a fitted GB estimator and the workload
    whose statements the stream instantiates."""
    if request.param == "conjunctive":
        featurizer = ConjunctiveEncoding(small_forest, max_partitions=8)
        workload = conjunctive_workload
    else:
        featurizer = DisjunctionEncoding(small_forest, max_partitions=8)
        workload = mixed_workload
    items = list(workload)[:200]
    estimator = LearnedEstimator(
        featurizer, GradientBoostingRegressor(n_estimators=10),
    ).fit([item.query for item in items],
          np.asarray([item.cardinality for item in items], dtype=float))
    return estimator, workload.queries[200:224]


def outcome(call):
    """``call()``'s value, or the class and message of its error."""
    try:
        return call()
    except (ValueError, KeyError) as error:
        return type(error), str(error)


def reference(estimator, sqls) -> list:
    """Per statement, the oracle's estimate, or the error
    ``estimate_batch`` raises on the parsed statement."""
    expected = []
    for sql in sqls:
        error = outcome(lambda: estimator.estimate_batch([parse_query(sql)]))
        if isinstance(error, tuple):
            expected.append(error)
        else:
            expected.append(float(estimator.estimate_features(oracle.matrix(
                estimator.featurizer, [parse_query(sql)]))[0]))
    return expected


def batch_reference(expected: list):
    """A batch's expected answer: its first error, else its estimates."""
    return next((e for e in expected if isinstance(e, tuple)), expected)


@pytest.mark.parametrize("cache_size", [1024, 0], ids=["shipped", "no-cache"])
@pytest.mark.parametrize("seed", [11, 12])
class TestEntryPointsAgree:
    def test_single_requests(self, case, cache_size, seed):
        estimator, queries = case
        sqls = statement_stream(queries, seed)
        service = EstimationService(estimator, cache_size=cache_size)
        try:
            got = [outcome(lambda: service.estimate(sql)[0])
                   for sql in sqls]
        finally:
            service.close()
        assert got == reference(estimator, sqls)

    def test_batches(self, case, cache_size, seed):
        estimator, queries = case
        sqls = statement_stream(queries, seed)
        expected = reference(estimator, sqls)
        rng = np.random.default_rng(seed)
        service = EstimationService(estimator, cache_size=cache_size)
        got, want = [], []
        try:
            start = 0
            while start < len(sqls):
                stop = start + int(rng.integers(1, 17))
                got.append(outcome(
                    lambda: service.estimate_many_sql(sqls[start:stop])))
                want.append(batch_reference(expected[start:stop]))
                start = stop
        finally:
            service.close()
        assert got == want

    def test_feedback_re_estimates(self, case, cache_size, seed):
        estimator, queries = case
        sqls = statement_stream(queries, seed)
        service = EstimationService(estimator, cache_size=cache_size)
        try:
            got = [outcome(lambda: service.feedback(
                sql, true_cardinality=100.0)[1]) for sql in sqls]
        finally:
            service.close()
        assert got == reference(estimator, sqls)

    def test_errors_keep_batch_precedence(self, case, cache_size, seed):
        """A syntax error anywhere in a batch beats a rejection; among
        rejections the first in request order wins, for the service and
        for ``estimate_batch`` alike — also when a query the QFT cannot
        compile precedes one on the wrong table."""
        estimator, queries = case
        sqls = statement_stream(queries, seed)
        expected = dict(zip(sqls, reference(estimator, sqls)))
        rejected = [sql for sql in sqls if isinstance(expected[sql], tuple)]
        good = [sql for sql in sqls if not isinstance(expected[sql], tuple)]
        wrong_table = next(sql for sql in rejected if "elsewhere" in sql)
        compile_error = next(sql for sql in rejected if "forest" in sql)
        broken = "SELECT count(*) FROM forest WHERE A1 >"
        service = EstimationService(estimator, cache_size=cache_size)
        try:
            for batch, want in (
                    (rejected[:2], expected[rejected[0]]),
                    (good[:2] + rejected[::-1], expected[rejected[-1]]),
                    (good[:1] + [compile_error, wrong_table],
                     expected[compile_error]),
                    (good[:1] + rejected + [broken],
                     outcome(lambda: parse_query(broken)))):
                assert outcome(
                    lambda: service.estimate_many_sql(batch)) == want
                assert outcome(lambda: estimator.estimate_batch(
                    [parse_query(sql) for sql in batch])) == want
        finally:
            service.close()


class TestConcurrentResolve:
    """Handler threads resolve (and plan) first-seen statements while
    the batcher thread executes statements other threads stored."""

    N_THREADS = 8

    def test_concurrent_single_requests_agree(self, case):
        estimator, queries = case
        sqls = statement_stream(queries, seed=21)
        expected = dict(zip(sqls, reference(estimator, sqls)))
        service = EstimationService(estimator, cache_size=0)
        failures: list[str] = []
        lock = threading.Lock()
        start = threading.Barrier(self.N_THREADS)

        def worker(offset: int) -> None:
            start.wait()
            for sql in sqls[offset:] + sqls[:offset]:
                if outcome(lambda: service.estimate(sql)[0]) \
                        != expected[sql]:
                    with lock:
                        failures.append(sql)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(9 * t,))
                       for t in range(self.N_THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            service.close()
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        stats = service.parse_cache.stats()
        assert stats["hits"] + stats["misses"] == self.N_THREADS * len(sqls)


def count_calls(monkeypatch) -> dict[str, list]:
    """Count parser, template, bind and plan-compile calls.

    Each function is replaced wherever a ``repro`` module binds it, so
    the count does not depend on which module calls it.
    """
    calls: dict[str, list] = {}
    originals = {"parse_query": parse_query,
                 "parse_template": parse_template,
                 "make_template": make_template,
                 "bind_template": bind_template}

    def counting(name, original):
        calls[name] = []

        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return original(*args, **kwargs)
        return wrapper

    for name, original in originals.items():
        wrapper = counting(name, original)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, wrapper)
    monkeypatch.setattr(Featurizer, "compile_plan",
                        counting("compile_plan", Featurizer.compile_plan))
    return calls


def counts(calls: dict[str, list]) -> dict[str, int]:
    return {name: len(recorded) for name, recorded in calls.items()}


#: What resolving one first-seen statement runs: its fingerprint key is
#: parsed once, straight into the template the plan compiles from.
FIRST_SEEN = {"parse_query": 0, "parse_template": 1, "make_template": 0,
              "bind_template": 0, "compile_plan": 1}


class TestSeenStatementMiss:
    def test_single_miss_runs_no_parser_bind_shape_or_compile(
            self, serve_estimator, conjunctive_workload, monkeypatch):
        query = conjunctive_workload.queries[0]
        fingerprint, values = fingerprint_sql(query.to_sql())
        first = render(fingerprint, values, np.random.default_rng(0))
        instance = render(fingerprint, [v + 1.0 for v in values],
                          np.random.default_rng(1))
        expected = reference(serve_estimator, [instance])[0]
        service = EstimationService(serve_estimator)
        try:
            calls = count_calls(monkeypatch)
            service.estimate(first)
            # The counters see the first-seen statement's work ...
            assert counts(calls) == FIRST_SEEN
            for recorded in calls.values():
                recorded.clear()
            before = service.parse_cache.stats()
            value, cached = service.estimate(instance)
            after = service.parse_cache.stats()
        finally:
            service.close()
        # ... and none of it for a new instance of the statement.
        assert cached is False and value == expected
        assert after["hits"] - before["hits"] == 1
        assert after["misses"] == before["misses"]
        assert counts(calls) == dict.fromkeys(FIRST_SEEN, 0)

    def test_seen_rejected_statement_runs_no_parser_or_compile(
            self, case, monkeypatch):
        estimator, _ = case
        rng = np.random.default_rng(3)
        service = EstimationService(estimator, cache_size=0)
        try:
            calls = count_calls(monkeypatch)
            for sql in REJECTED:
                fingerprint, values = fingerprint_sql(sql)
                instance = render(fingerprint, [v + 1.0 for v in values],
                                  rng)
                want = reference(estimator, [sql, instance])
                if not isinstance(want[0], tuple):
                    continue  # within this QFT's query class
                for recorded in calls.values():
                    recorded.clear()
                assert outcome(lambda: service.estimate(sql)) == want[0]
                assert counts(calls) == FIRST_SEEN
                for recorded in calls.values():
                    recorded.clear()
                for call in (lambda: service.estimate(instance),
                             lambda: service.estimate_many_sql([instance]),
                             lambda: service.feedback(instance, 10.0)):
                    assert outcome(call) == want[1]
                assert counts(calls) == dict.fromkeys(FIRST_SEEN, 0)
        finally:
            service.close()

    def test_first_seen_statement_parses_its_key_once(self, case,
                                                      monkeypatch):
        """A first-seen statement costs one key parse and one plan
        compile: no full parse, no template rebuild, no re-bind."""
        estimator, queries = case
        by_fingerprint = {fingerprint_sql(q.to_sql())[0]: q.to_sql()
                          for q in queries}
        sqls = list(by_fingerprint.values())[:4]
        expected = reference(estimator, sqls)
        service = EstimationService(estimator, cache_size=0)
        try:
            calls = count_calls(monkeypatch)
            assert service.estimate(sqls[0])[0] == expected[0]
            assert counts(calls) == FIRST_SEEN
            for recorded in calls.values():
                recorded.clear()
            # A batch of three more first-seen statements, one repeated.
            batch = sqls[1:] + sqls[1:2]
            assert service.estimate_many_sql(batch) \
                == expected[1:] + expected[1:2]
            assert counts(calls) == {name: 3 * count
                                     for name, count in FIRST_SEEN.items()}
        finally:
            service.close()
