"""Per-layer metrics of a traced run, measured from outside the program.

Three sources, as the program offers them:

* counters the server exports on ``/metrics`` (scraped before and after
  the traced segment; :func:`counter_layers`);
* the server's own spans (``repro serve --trace``), folded per request
  and per layer (:func:`span_layers`) on the shared ``CLOCK_MONOTONIC``
  timeline of the client spans;
* the benchmark's own spans around public functions that carry no span
  in the program, replaying the traced segment's exact inputs
  (:func:`parser_replay`, :func:`json_replay`, :func:`obs_replay`).

The fleet cannot write a server trace, so :func:`fleet_replay` feeds the
same per-worker sub-batches through in-process
:class:`~repro.serve.EstimationService` instances whose spans then fold
exactly like a server trace.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from repro import obs
from repro.fleet.hashring import HashRing
from repro.obs.events import EventLog
from repro.obs.export import span_records, summarize_spans
from repro.obs.window import WindowedHistogram
from repro.serve import EstimationService, ServeClient
from repro.sql.parser import (
    bind_template,
    fingerprint_sql,
    make_template,
    parse_query,
)

from benchlib.loadgen import Op

__all__ = ["counter_totals", "counter_layers", "span_layers",
           "parser_replay", "json_replay", "obs_replay", "residual_pct",
           "fleet_owners", "fleet_replay", "router_probe"]

#: Statements replayed through the parser functions (parse dominates).
_PARSER_SAMPLE = 512


def counter_totals(document: dict) -> dict[str, float]:
    """Counter values of a ``/metrics`` JSON document, summed over a
    fleet's router and workers when the document is a fleet's."""
    parts = ([document["router"], *document["workers"].values()]
             if "workers" in document else [document])
    totals: dict[str, float] = {}
    for part in parts:
        for name, metric in part.items():
            if isinstance(metric, dict) and metric.get("kind") == "counter":
                totals[name] = totals.get(name, 0.0) + metric["value"]
    return totals


def counter_layers(before: dict, after: dict) -> dict[str, float]:
    """Cache, parser and error counters moved during the segment."""
    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    def ratio(prefix: str) -> float:
        hits, misses = delta(prefix + ".hits"), delta(prefix + ".misses")
        return hits / (hits + misses) if hits + misses else 0.0

    return {
        "cache.estimate_hit_ratio": ratio("serve.cache"),
        "cache.parse_hit_ratio": ratio("serve.parse_cache"),
        "cache.plan_hit_ratio": ratio("serve.plan_cache"),
        "cache.parse_evictions": delta("serve.parse_cache.evictions"),
        "cache.plan_evictions": delta("serve.plan_cache.evictions"),
        # Every parse-cache miss runs the full tokenizer + descent.
        "parser.full_parses": delta("serve.parse_cache.misses"),
        "server.rejected_total": delta("serve.rejected_total"),
        "server.errors_total": (delta("serve.errors_total")
                                + delta("fleet.errors_total")),
    }


def _mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else float("nan")


def span_layers(records: Sequence[dict], client: Sequence[dict] = ()
                ) -> dict[str, float]:
    """Fold server spans per layer; ``client`` spans add the HTTP layer.

    A request's self time is its ``serve.request`` span minus its direct
    child spans and minus the stretch it spent riding a micro-batch (the
    batcher's collect + execute, linked to the request's trace id).
    """
    records = span_records(records)
    by_name = summarize_spans(records)["by_name"]
    children: dict[int, int] = {}
    for record in records:
        if record["parent_id"] is not None:
            children[record["parent_id"]] = (children.get(record["parent_id"], 0)
                                             + record["duration_ns"])

    def named(name: str) -> list[dict]:
        return [r for r in records if r["name"] == name]

    # Pair each batcher execute with the collect that preceded it on the
    # batcher thread; the interval covers the requests it links.
    collects = sorted(named("serve.batch.collect"),
                      key=lambda r: r["start_ns"])
    batched = [r for r in named("serve.batch.execute")
               if "batch_id" in r["attributes"]]
    rides: dict[int, tuple[int, int]] = {}
    for execute in batched:
        begin = execute["start_ns"]
        for collect in collects:
            if (collect["thread"] == execute["thread"]
                    and collect["start_ns"] <= execute["start_ns"]):
                begin = collect["start_ns"]
        for trace_id in execute["attributes"].get("links", ()):
            rides[trace_id] = (begin,
                               execute["start_ns"] + execute["duration_ns"])

    requests = named("serve.request")
    self_ms = []
    server_ns: dict[int, int] = {}
    for request in requests:
        start = request["start_ns"]
        end = start + request["duration_ns"]
        own = request["duration_ns"] - children.get(request["span_id"], 0)
        trace_id = request["attributes"].get("trace_id")
        if trace_id in rides:
            ride_begin, ride_end = rides[trace_id]
            own -= max(0, min(end, ride_end) - max(start, ride_begin))
        self_ms.append(own / 1e6)
        if trace_id is not None:
            server_ns[trace_id] = request["duration_ns"]

    layers = {
        "server.request_ms": _mean([r["duration_ns"] / 1e6
                                    for r in requests]),
        "server.self_ms": _mean(self_ms),
    }
    compiles = named("serve.fused.compile")
    layers["fused.compile_ms"] = _mean([r["duration_ns"] / 1e6
                                        for r in compiles])
    layers["fused.shapes_per_batch"] = _mean(
        [r["attributes"].get("n_shapes", 0) for r in compiles])
    for stage in ("encode", "predict"):
        spans = named(f"serve.fused.{stage}")
        queries = sum(r["attributes"]["n_queries"] for r in spans)
        total = sum(r["duration_ns"] for r in spans)
        layers[f"fused.{stage}_us_per_query"] = (total / queries / 1e3
                                                 if queries else float("nan"))
    if batched:
        layers["batcher.batch_size_mean"] = _mean(
            [r["attributes"]["n_queries"] for r in batched])
        layers["batcher.collect_ms"] = _mean(
            [r["duration_ns"] / 1e6 for r in collects])
        layers["batcher.execute_ms"] = _mean(
            [r["duration_ns"] / 1e6 for r in batched])
        layers["batcher.batches_total"] = float(len(batched))
    if "serve.feedback" in by_name:
        layers["server.feedback_ms"] = (
            by_name["serve.feedback"]["mean_seconds"] * 1e3)
    overheads = [(r["duration_ns"] - server_ns[r["attributes"]["trace_id"]])
                 / 1e6 for r in client
                 if r["name"] == "serve.client.request"
                 and r["attributes"].get("trace_id") in server_ns]
    if overheads:
        layers["http.overhead_ms"] = _mean(overheads)
    return layers


def _timed(name: str, calls, fn) -> float:
    """Run ``fn`` over ``calls`` under one benchmark span; µs per call."""
    with obs.span(name, calls=len(calls)):
        begin = time.perf_counter_ns()
        for args in calls:
            fn(*args)
        elapsed = time.perf_counter_ns() - begin
    return elapsed / max(len(calls), 1) / 1e3


def parser_replay(sqls: Sequence[str]) -> dict[str, float]:
    """Per-call µs of the parser's public functions on the run's SQL."""
    sample = list(sqls[:_PARSER_SAMPLE])
    fingerprints = [fingerprint_sql(sql) for sql in sample]
    parsed = [parse_query(sql) for sql in sample]
    templates = [make_template(query, literals)
                 for query, (_, literals) in zip(parsed, fingerprints)]
    bindable = [(template, literals)
                for template, (_, literals) in zip(templates, fingerprints)
                if template is not None]
    return {
        "parser.fingerprint_us": _timed("replay.parser.fingerprint",
                                        [(sql,) for sql in sample],
                                        fingerprint_sql),
        "parser.parse_us": _timed("replay.parser.parse",
                                  [(sql,) for sql in sample], parse_query),
        "parser.template_us": _timed(
            "replay.parser.template",
            [(q, lits) for q, (_, lits) in zip(parsed, fingerprints)],
            make_template),
        "parser.bind_us": _timed("replay.parser.bind", bindable,
                                 bind_template),
    }


def json_replay(payloads: Sequence[dict], responses: Sequence[dict]
                ) -> dict[str, float]:
    """Per-op µs to encode the run's request bodies and decode its
    response bodies, as :class:`~repro.serve.ServeClient` does."""
    texts = [(json.dumps(response),) for response in responses]
    return {
        "client.json_encode_us": _timed(
            "replay.client.json_encode", [(p,) for p in payloads],
            lambda payload: json.dumps(payload).encode("utf-8")),
        "client.json_decode_us": _timed("replay.client.json_decode", texts,
                                        json.loads),
    }


def obs_replay(ops: Sequence[Op], sqls: Sequence[str | None],
               estimates: Sequence[float]) -> dict[str, float]:
    """Per-request µs of the telemetry calls every estimate request makes:
    one wide event and one windowed latency observation."""
    log = EventLog()
    window = WindowedHistogram("replay.request.seconds.window",
                               label_names=("model", "cache"))
    events = [(op.trace_id, sql, op.latency_ms / 1e3, estimate,
               fingerprint_sql(sql)[0] if sql else None)
              for op, sql, estimate in zip(ops, sqls, estimates)]

    def record(trace_id, sql, seconds, estimate, fingerprint):
        log.record(trace_id=trace_id, fingerprint=fingerprint, sql=sql,
                   model_version="bench", cache="miss",
                   latency_seconds=seconds, estimate=estimate)

    return {
        "obs.event_record_us": _timed("replay.obs.event_record", events,
                                      record),
        "obs.window_observe_us": _timed(
            "replay.obs.window_observe", events,
            lambda trace_id, sql, seconds, estimate, fingerprint:
                window.observe(seconds, model="bench", cache="miss")),
    }


def residual_pct(ops: Sequence[Op], client: Sequence[dict],
                 encode_us: float, decode_us: float) -> float:
    """Share of caller-side op time outside every client-side layer.

    An op's wall time is covered by its ``serve.client.request`` span
    (HTTP exchange, server included) plus JSON encode and decode.
    """
    exchange = {r["attributes"].get("trace_id"): r["duration_ns"]
                for r in client if r["name"] == "serve.client.request"}
    walls = [(op.end_ns - op.start_ns, exchange[op.trace_id])
             for op in ops if op.trace_id in exchange]
    if not walls:
        return float("nan")
    wall = sum(w for w, _ in walls)
    covered = sum(c for _, c in walls) + len(walls) * (encode_us
                                                       + decode_us) * 1e3
    return 100.0 * (wall - covered) / wall


def fleet_owners(worker_ids: Sequence[str], sqls: Sequence[str]
                 ) -> list[str]:
    """The owning worker of each statement, by the router's hash ring."""
    ring = HashRing(tuple(worker_ids))
    return [ring.lookup(fingerprint_sql(sql)[0]) for sql in sqls]


def fleet_replay(estimator_loader, worker_ids: Sequence[str],
                 batches: Sequence[list[str]]) -> list[dict]:
    """Replay the fleet's per-worker sub-batches in-process; return the
    spans the workers would have written.

    One :class:`EstimationService` per worker, configured as
    ``repro fleet serve`` configures its workers, sees exactly the
    sub-batches the router forwards to it, in order.
    """
    services = {worker: EstimationService(estimator_loader(), tick_every=64)
                for worker in worker_ids}
    tracer = obs.Tracer(enabled=True)
    try:
        with obs.use_tracer(tracer):
            for batch in batches:
                owners = fleet_owners(worker_ids, batch)
                for worker in worker_ids:
                    group = [sql for sql, owner in zip(batch, owners)
                             if owner == worker]
                    if group:
                        services[worker].estimate_many_sql(group)
    finally:
        for service in services.values():
            service.close()
    return span_records(tracer.finished())


def router_probe(router_url: str, worker_urls: dict[str, str],
                 batches: Sequence[list[str]]) -> tuple[float, list[list]]:
    """Router request minus direct worker requests for the same owner
    groups (sent concurrently, as the router fans out), in ms.

    Returns the median difference and every answer, router first then
    direct, for the caller's correctness check.
    """
    worker_ids = sorted(worker_urls)
    clients = {w: ServeClient(worker_urls[w], timeout=30.0)
               for w in worker_ids}
    routed, direct, answers = [], [], []
    with ServeClient(router_url, timeout=30.0) as router, \
            ThreadPoolExecutor(max_workers=len(worker_ids)) as pool:
        for batch in batches:
            begin = time.perf_counter_ns()
            answer = router.estimate_batch(batch)
            routed.append(time.perf_counter_ns() - begin)
            owners = fleet_owners(worker_ids, batch)
            groups = {w: [i for i, o in enumerate(owners) if o == w]
                      for w in worker_ids}
            groups = {w: g for w, g in groups.items() if g}
            begin = time.perf_counter_ns()
            futures = {w: pool.submit(clients[w].estimate_batch,
                                      [batch[i] for i in g])
                       for w, g in groups.items()}
            parts = {w: f.result() for w, f in futures.items()}
            direct.append(time.perf_counter_ns() - begin)
            merged = [0.0] * len(batch)
            for w, g in groups.items():
                for i, value in zip(g, parts[w]):
                    merged[i] = value
            answers.append([answer, merged])
    return (float(np.median(routed) - np.median(direct)) / 1e6, answers)
