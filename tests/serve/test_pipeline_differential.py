"""Differential test of the one serving pipeline.

A seeded generator spells SQL statements the way clients do: exact
repeats, new literal instances of seen statements, first-seen
statements, and every literal spelling the parser accepts (``5``,
``5.0``, ``05``, ``-3``).  Each of the service's entry points —
``estimate`` (through the micro-batcher), ``estimate_many_sql`` and
``feedback(estimate=None)`` — must answer every statement
bitwise-equal to the estimator's model applied to the oracle encoding
(:mod:`tests.featurize.reference`) of ``parse_query(sql)``, for
conjunctive statements under Universal Conjunction Encoding and mixed
AND/OR statements under Limited Disjunction Encoding, with the
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
    """A seeded client stream over the statements of ``queries``."""
    rng = np.random.default_rng(seed)
    bases = [fingerprint_sql(q.to_sql()) for q in queries]
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


def reference(estimator, sqls) -> list[float]:
    return [float(estimator.estimate_features(oracle.matrix(
        estimator.featurizer, [parse_query(sql)]))[0]) for sql in sqls]


@pytest.mark.parametrize("cache_size", [1024, 0], ids=["shipped", "no-cache"])
@pytest.mark.parametrize("seed", [11, 12])
class TestEntryPointsAgree:
    def test_single_requests(self, case, cache_size, seed):
        estimator, queries = case
        sqls = statement_stream(queries, seed)
        service = EstimationService(estimator, cache_size=cache_size)
        try:
            got = [service.estimate(sql)[0] for sql in sqls]
        finally:
            service.close()
        assert got == reference(estimator, sqls)

    def test_batches(self, case, cache_size, seed):
        estimator, queries = case
        sqls = statement_stream(queries, seed)
        rng = np.random.default_rng(seed)
        service = EstimationService(estimator, cache_size=cache_size)
        got: list[float] = []
        try:
            start = 0
            while start < len(sqls):
                size = int(rng.integers(1, 17))
                got.extend(service.estimate_many_sql(sqls[start:start + size]))
                start += size
        finally:
            service.close()
        assert got == reference(estimator, sqls)

    def test_feedback_re_estimates(self, case, cache_size, seed):
        estimator, queries = case
        sqls = statement_stream(queries, seed)
        service = EstimationService(estimator, cache_size=cache_size)
        try:
            got = [service.feedback(sql, true_cardinality=100.0)[1]
                   for sql in sqls]
        finally:
            service.close()
        assert got == reference(estimator, sqls)


class TestConcurrentResolve:
    """Handler threads resolve (and plan) first-seen statements while
    the batcher thread executes statements other threads stored."""

    N_THREADS = 8

    def test_concurrent_single_requests_agree(self, case):
        estimator, queries = case
        sqls = statement_stream(queries, seed=21)
        expected = dict(zip(sqls, reference(estimator, sqls)))
        service = EstimationService(estimator, cache_size=0,
                                    max_batch_size=16, max_wait_ms=1.0)
        failures: list[str] = []
        lock = threading.Lock()
        start = threading.Barrier(self.N_THREADS)

        def worker(offset: int) -> None:
            start.wait()
            for sql in sqls[offset:] + sqls[:offset]:
                value, _ = service.estimate(sql)
                if value != expected[sql]:
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


class Opaque:
    """An estimator without a featurizer: the adapter leg serves it."""

    name = "opaque"

    def __init__(self, inner) -> None:
        self._inner = inner
        self.calls = 0

    def estimate_batch(self, queries):
        self.calls += 1
        return self._inner.estimate_batch(queries)


class TestAdapterLeg:
    def test_single_and_batch_requests_use_the_adapter(
            self, serve_estimator, conjunctive_workload):
        sqls = statement_stream(conjunctive_workload.queries[:8], seed=5)
        opaque = Opaque(serve_estimator)
        service = EstimationService(opaque, cache_size=0)
        try:
            singles = [service.estimate(sql)[0] for sql in sqls[:24]]
            single_calls = opaque.calls
            batch = service.estimate_many_sql(sqls[24:])
        finally:
            service.close()
        assert single_calls >= 1
        assert opaque.calls == single_calls + 1
        assert singles + batch == reference(serve_estimator, sqls)
