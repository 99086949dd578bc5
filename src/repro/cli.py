"""Command-line interface.

Four subcommands cover the train-once / estimate-many workflow a
downstream user needs, plus dataset generation:

* ``repro generate-forest out.csv --rows 60000`` — write the synthetic
  covertype table (or use a real UCI ``covtype.data`` directly).
* ``repro train data.csv model.npz --qft conjunctive --model gb`` —
  generate + label a training workload over the CSV table, train the
  chosen QFT × model combination, and persist it.
* ``repro estimate model.npz "SELECT count(*) FROM t WHERE a > 5"`` —
  load a persisted estimator and print the estimate (optionally the true
  cardinality and q-error when ``--data`` is given).
* ``repro experiments ...`` — forwards to the experiment runner.
* ``repro serve --artifact model.npz --port 8642`` — serve a persisted
  estimator over the HTTP JSON API (micro-batching, estimate cache,
  admission control; see ``docs/serving.md``).  ``--registry`` switches
  ``--artifact`` to a published model-registry name.
* ``repro bench featurize`` — per-query-loop vs batch featurization
  benchmark; writes ``BENCH_featurize.json`` and fails if one
  ``featurize_batch`` call is slower than the per-query ``featurize``
  loop or their matrices differ.
* ``repro bench lint`` — cold full-tree lint benchmark with its
  per-stage split; writes ``BENCH_lint.json``.
* ``repro bench obs`` — observability-overhead benchmark; writes
  ``BENCH_obs.json`` and fails if disabled-tracing overhead exceeds
  ``--max-overhead`` (default 3%).
* ``repro bench serve`` — end-to-end serving benchmark (closed-loop
  client fleet, client batch sizes 1/8/64); writes ``BENCH_serve.json``
  and fails if batched throughput is below ``--min-batch-speedup``
  (default 5x) times the single-request rate.  ``--workers N`` adds a
  fleet-scaling leg (router + worker subprocesses at 1..N workers)
  gated on ``--min-fleet-speedup``.
* ``repro fleet serve --registry R --model M --workers N`` — sharded
  multi-process serving with canary rollouts; ``repro fleet
  status/rollout/promote/rollback`` drive a running fleet (see
  ``docs/serving.md``).
* ``repro obs report trace.jsonl [--events events.jsonl]`` — per-stage
  summary of a span trace recorded with ``--trace``, plus a request-
  event summary when ``--events`` is given (see
  ``docs/observability.md``).
* ``repro obs watch events.jsonl [--follow]`` — tail a request-event
  log as one aligned line per event.
* ``repro obs stitch client.jsonl server.jsonl --output trace.json`` —
  stitch span logs from several processes into one Chrome trace with
  flow arrows joining each request's client and server spans.
* ``repro lint [paths]`` — forwards to the repo's own static-analysis
  pass, ``python -m repro.lint`` (see ``docs/lint_rules.md``).

Invoke as ``python -m repro <subcommand>``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import config
from repro.data.forest import generate_forest
from repro.data.loaders import load_table_csv, save_table_csv
from repro.estimators import LearnedEstimator
from repro.experiments import runner as experiments_runner
from repro.featurize import BY_PAPER_LABEL
from repro.metrics import qerror
from repro.models import GradientBoostingRegressor, NeuralNetRegressor
from repro.persistence import load_estimator, save_estimator
from repro.sql.executor import cardinality
from repro.sql.parser import parse_query
from repro.workloads import (
    generate_conjunctive_workload,
    generate_mixed_workload,
)

__all__ = ["build_parser", "main"]

_MODELS = {
    "gb": lambda trees: GradientBoostingRegressor(n_estimators=trees),
    "nn": lambda trees: NeuralNetRegressor(),
}


def _cmd_generate_forest(args) -> int:
    table = generate_forest(rows=args.rows, seed=args.seed)
    save_table_csv(table, args.output)
    print(f"wrote {table.row_count} rows x {len(table.column_names)} "
          f"columns to {args.output}")
    return 0


def _cmd_train(args) -> int:
    table = load_table_csv(args.data, name=args.table_name)
    print(f"loaded {table}")
    generate = (generate_mixed_workload if args.workload == "mixed"
                else generate_conjunctive_workload)
    workload = generate(table, args.queries,
                        max_attributes=min(args.max_attributes,
                                           len(table.column_names)),
                        seed=args.seed)
    print(f"labeled {len(workload)} {args.workload} training queries")
    featurizer_cls = BY_PAPER_LABEL[args.qft]
    if args.qft in ("conjunctive", "complex"):
        featurizer = featurizer_cls(table, max_partitions=args.partitions)
    else:
        featurizer = featurizer_cls(table)
    estimator = LearnedEstimator(featurizer, _MODELS[args.model](args.trees))
    estimator.fit(workload.queries, workload.cardinalities)
    save_estimator(estimator, args.output)
    print(f"saved estimator ({estimator.name}, "
          f"{estimator.memory_bytes() / 1024:.1f} kB) to {args.output}")
    return 0


def _cmd_estimate(args) -> int:
    estimator = load_estimator(args.model)
    query = parse_query(args.sql)
    estimate = estimator.estimate(query)
    print(f"estimate: {estimate:.0f}")
    if args.data:
        table = load_table_csv(args.data,
                               name=estimator.featurizer.table_name)
        true_count = cardinality(query, table)
        print(f"true:     {true_count}")
        # qerror rejects empty results (the paper's protocol); an ad-hoc
        # CLI query may legitimately match nothing, so floor it here.
        print(f"q-error:  {float(qerror(max(true_count, 1), estimate)):.2f}")
    return 0


def _cmd_serve(args) -> int:
    import signal
    import threading

    from repro import obs
    from repro.serve import EstimationServer, EstimationService, ModelRegistry

    if args.registry is not None:
        registry = ModelRegistry(args.registry)
        estimator = registry.load(args.artifact, args.version)
        print(f"loaded {registry.resolve(args.artifact, args.version).label()}"
              f" from registry {args.registry}")
    else:
        estimator = load_estimator(args.artifact)
        print(f"loaded {estimator.name} from {args.artifact}")
    if args.trace:
        # Spans are recorded for the whole serving lifetime and written
        # as JSONL at drain; stitch with a client trace afterwards.
        obs.enable()
    service = EstimationService(estimator,
                                max_batch_size=args.max_batch_size,
                                max_wait_ms=args.max_wait_ms,
                                cache_size=args.cache_size,
                                max_inflight=args.max_inflight,
                                model_version=args.model_version,
                                tick_every=args.tick_every)
    server = EstimationServer(service, host=args.host, port=args.port)
    server.start()
    print(f"serving on {server.url} "
          f"(batch<= {args.max_batch_size}, wait {args.max_wait_ms}ms, "
          f"cache {args.cache_size}, "
          f"inflight<= {args.max_inflight}, "
          f"model {service.model_version}, tick every {args.tick_every})")
    stop = getattr(args, "shutdown_event", None) or threading.Event()
    if threading.current_thread() is threading.main_thread():
        # SIGINT/SIGTERM trigger the graceful drain; tests drive the
        # same path through an injected shutdown_event instead.
        signal.signal(signal.SIGINT, lambda signum, frame: stop.set())
        signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    stop.wait()
    print("draining in-flight requests ...")
    server.stop(drain=True)
    if args.trace:
        from repro.obs import export

        count = export.write_spans_jsonl(obs.get_tracer().finished(),
                                         args.trace)
        print(f"wrote {count} spans to {args.trace}")
    if args.events:
        count = obs.get_event_log().write_jsonl(args.events)
        print(f"wrote {count} events to {args.events}")
    print("server stopped")
    return 0


def _cmd_bench(args) -> int:
    args.smoke = args.smoke or args.quick
    if args.target == "lint":
        return _cmd_bench_lint(args)
    if args.target == "obs":
        return _cmd_bench_obs(args)
    if args.target == "serve":
        return _cmd_bench_serve(args)
    if args.target == "predict":
        return _cmd_bench_predict(args)
    from repro import obs
    from repro.bench import run_featurize_bench, write_report

    tracer = obs.Tracer(enabled=bool(args.trace))
    with obs.use_tracer(tracer):
        report = run_featurize_bench(rows=args.rows, queries=args.queries,
                                     partitions=args.partitions,
                                     seed=args.seed,
                                     smoke=args.smoke, repeats=args.repeats)
    if args.trace:
        from repro.obs import export

        count = export.write_spans_jsonl(tracer.finished(), args.trace)
        print(f"wrote {count} spans to {args.trace}")
    cfg = report["config"]
    print(f"featurize bench: {cfg['queries']} queries over "
          f"{cfg['rows']} rows ({cfg['partitions']} partitions, "
          f"seed {cfg['seed']}{', smoke' if cfg['smoke'] else ''})")
    for case in report["cases"]:
        status = "ok" if case["identical"] else "MISMATCH"
        print(f"  {case['featurizer']:>12} / {case['workload']:<12} "
              f"per-query {case['scalar_seconds']:8.3f}s  "
              f"batch {case['batch_seconds']:8.3f}s  "
              f"speedup {case['speedup']:6.2f}x  [{status}]")
    output = args.output or Path("BENCH_featurize.json")
    write_report(report, output)
    print(f"wrote {output}")
    if not report["all_identical"]:
        print("FAIL: per-query featurize diverges from featurize_batch")
        return 1
    if report["min_speedup"] < args.min_speedup:
        print(f"FAIL: min speedup {report['min_speedup']:.2f}x below "
              f"required {args.min_speedup:.2f}x")
        return 1
    return 0


def _cmd_bench_lint(args) -> int:
    from repro.bench import run_lint_bench, write_report

    report = run_lint_bench(repeats=args.repeats)
    print(f"lint bench: {report['files_scanned']} files, "
          f"cold {report['cold_seconds']:.3f}s "
          f"(best of {report['config']['repeats']})")
    for name, seconds in report["stage_seconds"].items():
        print(f"  {name:10s} {seconds:.3f}s")
    output = args.output or Path("BENCH_lint.json")
    write_report(report, output)
    print(f"wrote {output}")
    return 0


def _cmd_bench_obs(args) -> int:
    from repro.bench import run_obs_bench, write_report

    report = run_obs_bench(rows=args.rows, queries=args.queries,
                           partitions=args.partitions, seed=args.seed,
                           smoke=args.smoke, repeats=args.repeats)
    cfg = report["config"]
    print(f"obs bench: {report['n_queries']} queries over {cfg['rows']} "
          f"rows, best of {cfg['repeats']} "
          f"({'smoke' if cfg['smoke'] else 'full'})")
    print(f"  baseline (uninstrumented) {report['baseline_seconds']:8.3f}s")
    print(f"  tracing disabled          {report['disabled_seconds']:8.3f}s "
          f"({report['disabled_overhead_pct']:+.2f}%)")
    print(f"  tracing enabled           {report['enabled_seconds']:8.3f}s "
          f"({report['enabled_overhead_pct']:+.2f}%)")
    window = report["window"]
    events = report["events"]
    print(f"  window observe {window['observe_ns_per_op']:8.0f}ns/op  "
          f"advance {window['advance_ns_per_op']:8.0f}ns/op")
    print(f"  event record   {events['keep_all_ns_per_op']:8.0f}ns/op "
          f"(keep all)  {events['sample_16_ns_per_op']:8.0f}ns/op "
          f"(1-in-16 sampling)")
    output = args.output or Path("BENCH_obs.json")
    write_report(report, output)
    print(f"wrote {output}")
    if report["disabled_overhead_pct"] > args.max_overhead:
        print(f"FAIL: disabled-tracing overhead "
              f"{report['disabled_overhead_pct']:.2f}% above allowed "
              f"{args.max_overhead:.2f}%")
        return 1
    return 0


def _cmd_bench_serve(args) -> int:
    from repro.bench import run_serve_bench, write_report

    # 10k HTTP requests per case is featurize-bench scale, not serving
    # scale; cap the shared --queries default at a seconds-long run.
    queries = min(args.queries, 4_096)
    if queries < args.queries:
        print(f"capping --queries at {queries} for the serving benchmark")
    report = run_serve_bench(artifact=args.artifact, rows=args.rows,
                             queries=queries, threads=args.threads,
                             partitions=args.partitions, seed=args.seed,
                             smoke=args.smoke, templates=args.templates)
    cfg = report["config"]
    print(f"serve bench: {cfg['queries']} queries over "
          f"{cfg['templates']} statement templates, "
          f"{cfg['threads']} client threads, estimator "
          f"{cfg['estimator']}{', smoke' if cfg['smoke'] else ''}")
    for case in report["cases"]:
        print(f"  batch {case['batch_size']:>3}: "
              f"{case['queries_per_second']:10.1f} q/s  "
              f"p50 {case['p50_latency_ms']:7.2f}ms  "
              f"p95 {case['p95_latency_ms']:7.2f}ms  "
              f"({case['requests']} requests)")
    print(f"  batched/single speedup: {report['speedup']:.2f}x")
    verdict = "ok" if report["fused_identical"] else "MISMATCH"
    parses = report["parse_cache"]
    print(f"  served estimates: bitwise vs estimate_batch, cold and warm "
          f"[{verdict}]")
    print(f"  parse cache: {parses['hits']} hits / "
          f"{parses['misses']} misses "
          f"({parses['size']} statements)")
    print(f"  forest inference (embedded bench predict): "
          f"{report['predict']['min_speedup']:.2f}x min speedup, "
          f"{report['predict']['n_trees']} trees")
    output = args.output or Path("BENCH_serve.json")
    write_report(report, output)
    print(f"wrote {output}")
    if not report["fused_identical"]:
        print("FAIL: served estimates diverge from estimate_batch")
        return 1
    if not report["predict"]["all_identical"]:
        print("FAIL: compiled forest diverges from the per-tree loop")
        return 1
    if report["speedup"] < args.min_batch_speedup:
        print(f"FAIL: batched throughput speedup {report['speedup']:.2f}x "
              f"below required {args.min_batch_speedup:.2f}x")
        return 1
    if args.workers > 1:
        return _bench_serve_fleet_leg(args, report, output)
    return 0


def _bench_serve_fleet_leg(args, report: dict, output: Path) -> int:
    """Fleet-scaling leg of ``repro bench serve --workers N``."""
    from repro.bench import run_fleet_bench, write_report

    counts = sorted({1, max(2, args.workers // 2), args.workers})
    fleet = run_fleet_bench(artifact=args.artifact, rows=args.rows,
                            queries=min(args.queries, 4_096),
                            threads=args.threads, partitions=args.partitions,
                            seed=args.seed, smoke=args.smoke,
                            worker_counts=counts, templates=args.templates)
    print(f"fleet bench: {fleet['config']['queries']} queries, "
          f"batch {fleet['config']['batch_size']}, worker counts "
          f"{fleet['config']['worker_counts']}")
    for case in fleet["cases"]:
        print(f"  workers {case['workers']:>2}: "
              f"{case['queries_per_second']:10.1f} q/s  "
              f"p50 {case['p50_latency_ms']:7.2f}ms  "
              f"p95 {case['p95_latency_ms']:7.2f}ms")
    print(f"  fleet speedup at {max(counts)} workers: "
          f"{fleet['fleet_speedup']:.2f}x")
    report["fleet"] = fleet
    write_report(report, output)
    print(f"rewrote {output} with the fleet leg")
    cores = fleet["config"]["cpu_count"]
    if cores < max(counts):
        # Worker processes scale across cores; on a box with fewer
        # cores than workers the aggregate is capped at ~1x by the
        # hardware, so enforcing the speedup gate would only measure
        # the machine.  The report says so instead of lying.
        print(f"  NOTE: {cores} CPU core(s) < {max(counts)} workers — "
              f"{args.min_fleet_speedup:.2f}x scaling gate not "
              f"enforceable on this host (cpu_limited)")
        return 0
    if fleet["fleet_speedup"] < args.min_fleet_speedup:
        print(f"FAIL: fleet speedup {fleet['fleet_speedup']:.2f}x below "
              f"required {args.min_fleet_speedup:.2f}x")
        return 1
    return 0


def _cmd_bench_predict(args) -> int:
    from repro.bench import run_predict_bench, write_report

    kwargs = {}
    if args.batch_sizes:
        kwargs["batch_sizes"] = args.batch_sizes
    report = run_predict_bench(rows=args.rows,
                               queries=min(args.queries, 4_096),
                               partitions=args.partitions, seed=args.seed,
                               smoke=args.smoke, repeats=args.repeats,
                               **kwargs)
    cfg = report["config"]
    print(f"predict bench: {report['n_trees']} trees "
          f"(max {report['max_nodes']} nodes, depth {report['max_depth']}), "
          f"feature length {report['feature_length']}"
          f"{', smoke' if cfg['smoke'] else ''}")
    for case in report["cases"]:
        status = "ok" if case["identical"] else "MISMATCH"
        print(f"  batch {case['batch_size']:>5}: "
              f"legacy {case['legacy_seconds'] * 1000:9.3f}ms  "
              f"compiled {case['compiled_seconds'] * 1000:9.3f}ms  "
              f"speedup {case['speedup']:7.2f}x  [{status}]")
    print(f"  min speedup: {report['min_speedup']:.2f}x")
    output = args.output or Path("BENCH_predict.json")
    write_report(report, output)
    print(f"wrote {output}")
    if not report["all_identical"]:
        print("FAIL: compiled forest diverges from the per-tree loop")
        return 1
    if report["min_speedup"] < args.min_speedup:
        print(f"FAIL: min speedup {report['min_speedup']:.2f}x below "
              f"required {args.min_speedup:.2f}x")
        return 1
    return 0


def _cmd_obs_report(args) -> int:
    from repro.obs import events as obs_events
    from repro.obs import export

    if args.trace is None and args.events is None:
        print("error: nothing to report — give a span trace and/or "
              "--events", file=sys.stderr)
        return 2
    if args.trace is not None:
        records = export.read_spans_jsonl(args.trace)
        summary = export.summarize_spans(records)
        if args.format == "json":
            print(export.render_summary_json(summary))
        else:
            print(export.render_summary_text(summary))
        if args.chrome:
            count = export.write_chrome_trace(records, args.chrome)
            print(f"wrote {count} trace events to {args.chrome}")
    if args.events is not None:
        event_records = obs_events.read_events_jsonl(args.events)
        event_summary = obs_events.summarize_events(event_records)
        if args.format == "json":
            print(obs_events.render_events_summary_json(event_summary))
        else:
            print(obs_events.render_events_summary_text(event_summary))
    return 0


def _cmd_obs_watch(args) -> int:
    import time

    from repro.obs import events as obs_events

    shown = 0
    while True:
        if args.events.exists():
            records = obs_events.read_events_jsonl(args.events)
        elif not args.follow:
            print(f"error: no such event log: {args.events}",
                  file=sys.stderr)
            return 2
        else:
            records = []
        for record in records[shown:]:
            if args.errors_only and not record.get("error"):
                continue
            print(obs_events.render_event_text(record), flush=True)
        shown = len(records)
        if not args.follow:
            return 0
        try:
            # A poll delay, not a measurement — RPR108 governs clock
            # *reads*, and the tailer takes none.
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def _cmd_obs_stitch(args) -> int:
    from repro.obs import export

    traces = []
    for path in args.traces:
        traces.append((Path(path).stem, export.read_spans_jsonl(path)))
    count = export.write_stitched_chrome_trace(traces, args.output)
    names = ", ".join(name for name, _ in traces)
    print(f"wrote {count} trace events ({names}) to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Learned cardinality estimation with enhanced query "
                    "featurization (EDBT 2023 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate-forest",
                         help="write the synthetic covertype table as CSV")
    gen.add_argument("output", type=Path)
    gen.add_argument("--rows", type=int, default=config.FOREST_ROWS)
    gen.add_argument("--seed", type=int, default=config.DEFAULT_SEED)
    gen.set_defaults(func=_cmd_generate_forest)

    train = sub.add_parser("train", help="train and persist an estimator")
    train.add_argument("data", type=Path, help="CSV table (headered)")
    train.add_argument("output", type=Path, help="output .npz model path")
    train.add_argument("--table-name", default=None,
                       help="table name (default: CSV file stem)")
    train.add_argument("--qft", choices=sorted(BY_PAPER_LABEL),
                       default="conjunctive")
    train.add_argument("--model", choices=sorted(_MODELS), default="gb")
    train.add_argument("--workload", choices=["conjunctive", "mixed"],
                       default="conjunctive")
    train.add_argument("--queries", type=int, default=5_000)
    train.add_argument("--max-attributes", type=int, default=8)
    train.add_argument("--partitions", type=int, default=32)
    train.add_argument("--trees", type=int, default=150)
    train.add_argument("--seed", type=int, default=config.DEFAULT_SEED)
    train.set_defaults(func=_cmd_train)

    estimate = sub.add_parser("estimate",
                              help="estimate a SQL count(*) query")
    estimate.add_argument("model", type=Path, help="persisted .npz model")
    estimate.add_argument("sql", help="SELECT count(*) ... statement")
    estimate.add_argument("--data", type=Path, default=None,
                          help="CSV table to compute the true count against")
    estimate.set_defaults(func=_cmd_estimate)

    sub.add_parser(
        "experiments", help="run paper experiments (see runner --help)")

    sub.add_parser(
        "fleet", help="sharded multi-worker serving with hot-swap "
                      "rollouts (see fleet serve --help)")

    serve = sub.add_parser(
        "serve", help="serve a persisted estimator over an HTTP JSON API")
    serve.add_argument("--artifact", required=True,
                       help="persisted .npz model path (or a registry "
                            "model name with --registry)")
    serve.add_argument("--registry", type=Path, default=None,
                       help="model-registry root; --artifact is then a "
                            "published model name")
    serve.add_argument("--version", default="latest",
                       help="registry version to serve (default: latest)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642)
    serve.add_argument("--max-batch-size", type=int, default=64,
                       help="micro-batch dispatch threshold (default: 64)")
    serve.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="micro-batch collection window (default: 2ms)")
    serve.add_argument("--cache-size", type=int, default=1024,
                       help="LRU estimate-cache capacity, 0 disables "
                            "(default: 1024)")
    serve.add_argument("--max-inflight", type=int, default=256,
                       help="reject requests beyond this many in flight "
                            "with 503 (default: 256)")
    serve.add_argument("--model-version", default=None,
                       help="version label stamped on telemetry "
                            "(default: the estimator's name)")
    serve.add_argument("--tick-every", type=int, default=256,
                       help="advance the sliding telemetry windows every "
                            "N requests, 0 disables auto-ticking "
                            "(default: 256)")
    serve.add_argument("--trace", type=Path, default=None,
                       help="enable tracing and write the span JSONL "
                            "here at graceful shutdown")
    serve.add_argument("--events", type=Path, default=None,
                       help="write the retained request-event JSONL "
                            "here at graceful shutdown")
    serve.set_defaults(func=_cmd_serve)

    bench = sub.add_parser(
        "bench",
        help="micro-benchmarks (featurize throughput, lint run, "
             "obs overhead, serving latency, forest inference)")
    bench.add_argument("target", choices=["featurize", "lint", "obs",
                                          "serve", "predict"],
                       help="benchmark to run")
    bench.add_argument("--quick", action="store_true",
                       help="alias for --smoke")
    bench.add_argument("--smoke", action="store_true",
                       help="small CI-sized workload (caps rows/queries)")
    bench.add_argument("--rows", type=int, default=10_000,
                       help="synthetic table rows (default: 10000)")
    bench.add_argument("--queries", type=int, default=10_000,
                       help="queries per workload (default: 10000)")
    bench.add_argument("--partitions", type=int,
                       default=config.DEFAULT_PARTITIONS)
    bench.add_argument("--seed", type=int, default=config.DEFAULT_SEED)
    bench.add_argument("--repeats", type=int, default=3,
                       help="timed runs per case; the best is reported "
                            "(default: 3, smoke forces 1)")
    bench.add_argument("--output", type=Path, default=None,
                       help="JSON report path (default: "
                            "BENCH_<target>.json)")
    bench.add_argument("--min-speedup", type=float, default=1.0,
                       help="fail if any case's speedup is below this "
                            "(default: 1.0)")
    bench.add_argument("--max-overhead", type=float, default=3.0,
                       help="obs bench: fail if disabled-tracing overhead "
                            "exceeds this percentage (default: 3.0)")
    bench.add_argument("--trace", type=Path, default=None,
                       help="featurize bench: record spans to this JSONL "
                            "trace file")
    bench.add_argument("--artifact", default=None,
                       help="serve bench: persisted .npz estimator to "
                            "serve (default: train one in-process)")
    bench.add_argument("--threads", type=int, default=8,
                       help="serve bench: closed-loop client threads "
                            "(default: 8)")
    bench.add_argument("--templates", type=int, default=64,
                       help="serve bench: distinct statement templates in "
                            "the parameterized workload (default: 64)")
    bench.add_argument("--min-batch-speedup", type=float, default=5.0,
                       help="serve bench: fail if batched throughput is "
                            "below this multiple of the single-request "
                            "rate (default: 5.0)")
    bench.add_argument("--workers", type=int, default=0,
                       help="serve bench: also run the fleet-scaling leg "
                            "up to this many worker subprocesses "
                            "(default: 0 = off)")
    bench.add_argument("--min-fleet-speedup", type=float, default=3.0,
                       help="serve bench: fail if aggregate fleet "
                            "throughput at --workers is below this "
                            "multiple of the single-worker rate "
                            "(default: 3.0)")
    bench.add_argument("--batch-sizes", type=int, nargs="+", default=None,
                       help="predict bench: batch sizes to measure "
                            "(default: 1 8 64, the serving regime)")
    bench.set_defaults(func=_cmd_bench)

    obs_parser = sub.add_parser(
        "obs", help="observability utilities (see docs/observability.md)")
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report", help="summarise a JSONL span trace and/or event log")
    obs_report.add_argument("trace", type=Path, nargs="?", default=None,
                            help="trace.jsonl recorded with --trace")
    obs_report.add_argument("--events", type=Path, default=None,
                            help="events.jsonl recorded with "
                                 "serve --events")
    obs_report.add_argument("--format", choices=["text", "json"],
                            default="text",
                            help="report format (default: text)")
    obs_report.add_argument("--chrome", type=Path, default=None,
                            help="also write Chrome trace-event JSON "
                                 "(chrome://tracing / Perfetto)")
    obs_report.set_defaults(func=_cmd_obs_report)
    obs_watch = obs_sub.add_parser(
        "watch", help="print request events from a JSONL event log, "
                      "one aligned line each")
    obs_watch.add_argument("events", type=Path,
                           help="events.jsonl recorded with serve --events")
    obs_watch.add_argument("--follow", action="store_true",
                           help="keep polling the file for new events "
                                "(Ctrl-C to stop)")
    obs_watch.add_argument("--interval", type=float, default=1.0,
                           help="poll interval in seconds with --follow "
                                "(default: 1.0)")
    obs_watch.add_argument("--errors-only", action="store_true",
                           help="only print events that errored")
    obs_watch.set_defaults(func=_cmd_obs_watch)
    obs_stitch = obs_sub.add_parser(
        "stitch", help="stitch span traces from several processes into "
                       "one Chrome trace with flow arrows")
    obs_stitch.add_argument("traces", type=Path, nargs="+",
                            help="span JSONL files, ordered by causality "
                                 "(client before server); process names "
                                 "come from the file stems")
    obs_stitch.add_argument("--output", type=Path, required=True,
                            help="stitched Chrome trace-event JSON path")
    obs_stitch.set_defaults(func=_cmd_obs_stitch)

    sub.add_parser(
        "lint", help="run the repro static-analysis pass (RPR rules; "
                     "see lint --help)")

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    # The experiments subcommand forwards everything verbatim to the
    # experiment runner (argparse.REMAINDER mishandles leading options).
    if argv and argv[0] == "experiments":
        return experiments_runner.main(argv[1:])
    # The lint subcommand forwards the same way, so the lint front end
    # owns the one parser for its flags.
    if argv and argv[0] == "lint":
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    # The fleet subcommand parses with its own parser so the top-level
    # CLI never pays the fleet/serve import unless a fleet command runs.
    if argv and argv[0] == "fleet":
        from repro.fleet.cli import build_parser as build_fleet_parser

        args = build_fleet_parser().parse_args(argv)
        return args.func(args)
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
