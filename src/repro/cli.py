"""Command-line interface: ``repro-linkpred``.

Twelve subcommands cover the everyday uses of the library without
writing code — exploration (``datasets``, ``stats``), prediction and
evaluation (``predict``, ``evaluate``, ``discover``, ``triangles``),
the production runtime (``ingest``, ``query``, ``serve``,
``monitor``, ``casebook``), and the codebase's own static gate
(``lint``):

* ``repro-linkpred datasets`` — the registry of synthetic SNAP
  stand-ins with their measured statistics (table E1).
* ``repro-linkpred stats <file-or-dataset>`` — constant-memory stream
  statistics of an edge list.
* ``repro-linkpred predict <file-or-dataset>`` — ingest a stream with a
  chosen method and print the top predicted links among two-hop
  candidates; ``--save-checkpoint``/``--load-checkpoint`` persist and
  reuse the sketch state across invocations.
* ``repro-linkpred evaluate <file-or-dataset>`` — estimation accuracy
  of a sketch method against the exact oracle on the same stream.
* ``repro-linkpred discover <file-or-dataset>`` — LSH self-join: find
  the most similar vertex pairs with no candidate list.
* ``repro-linkpred triangles <file-or-dataset>`` — one-pass streaming
  triangle count (optionally checked against the exact count).
* ``repro-linkpred ingest <file-or-dataset>`` — the fault-tolerant
  ingestion runtime: checkpointed, resumable consumption with retries
  and a dead-letter channel (``--checkpoint-every N --resume``); see
  ``docs/OPERATIONS.md``.
* ``repro-linkpred query <file-or-dataset>`` — the batch query engine:
  score a whole pair file (``--pairs-file``) or serve a top-k query
  (``--vertex``) through the vectorized ``repro.serve`` kernel, from a
  fresh ingest or a saved checkpoint, as a table, CSV or JSON.
* ``repro-linkpred serve`` — the always-on HTTP serving tier:
  ``POST /score``, ``GET /topk/<vertex>``, health/readiness probes and
  a Prometheus ``/metrics`` endpoint over immutable packed
  generations, with live background ingest, zero-downtime snapshot
  hot-swap (``--refresh-every``) and graceful SIGTERM drain
  (``--drain-timeout``); see ``docs/OPERATIONS.md``.
* ``repro-linkpred monitor <metrics-file>`` — render a metrics
  snapshot (a ``--metrics-out`` JSON-lines flight record or a saved
  snapshot) as human-readable tables, or scrape a running server with
  ``--url http://host:port/v1/metrics``; see ``docs/OBSERVABILITY.md``.
* ``repro-linkpred casebook`` — the adversarial input casebook: print
  the case taxonomy with default policies and repairs, and (with
  ``--check``) replay a labeled hostile corpus under all three policy
  modes, asserting per-case dispositions and replay convergence; see
  ``docs/CASEBOOK.md``.
* ``repro-linkpred lint <paths>`` — repro-lint, the AST invariant
  checker that gates CI: determinism on hot paths, the error
  taxonomy, metrics hygiene, the thread/async publication boundary
  and the facade surface; see ``docs/LINT.md``.

``ingest`` and ``query`` take ``--metrics-out FILE`` (and
``--metrics-every N``) to sample their metrics registry as JSON lines
that ``monitor`` and any Prometheus bridge can consume.

Input may be a registry dataset name or a path to a SNAP-format edge
list (``u v [timestamp]`` rows, ``#`` comments).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, List, Optional

from repro.core.config import SketchConfig
from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.graph.stream import Edge

# Each subcommand imports what it runs, so ``ingest``, ``query`` and
# ``serve`` never load the evaluation harness or the method registry.

__all__ = ["main", "build_parser"]


def _load_edges(source: str, seed: int) -> List[Edge]:
    """Resolve a dataset name or an edge-list path into a stream."""
    from repro.graph import datasets
    from repro.graph.io import read_edge_list

    if source in datasets.DATASETS:
        return datasets.load(source, seed=seed)
    if os.path.exists(source):
        return read_edge_list(source)
    known = ", ".join(datasets.dataset_names())
    raise ReproError(
        f"{source!r} is neither a registry dataset ({known}) nor a file path"
    )


def _cmd_datasets(args: argparse.Namespace) -> int:
    from repro.eval.reporting import format_table
    from repro.graph import datasets

    rows = []
    for name in datasets.dataset_names():
        stats = datasets.statistics(name, seed=args.seed)
        spec = datasets.spec(name)
        rows.append(
            [
                name,
                spec.stands_in_for,
                int(stats["vertices"]),
                int(stats["edges"]),
                stats["mean_degree"],
                int(stats["max_degree"]),
                stats["tail_exponent"],
            ]
        )
    print(
        format_table(
            ["dataset", "stands in for", "|V|", "|E|", "mean deg", "max deg", "tail α"],
            rows,
            title="Registry datasets (synthetic SNAP stand-ins)",
            precision=2,
        )
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.eval.reporting import format_table
    from repro.graph.stream import StreamStats

    stats = StreamStats()
    for edge in _load_edges(args.source, args.seed):
        stats.observe(edge)
    rows = [
        ["records", stats.records],
        ["approx distinct vertices", int(stats.approximate_vertices())],
        ["approx distinct edges", int(stats.approximate_edges())],
        ["duplicate ratio", stats.duplicate_ratio()],
    ]
    print(format_table(["statistic", "value"], rows, title=f"Stream: {args.source}"))
    return 0


def _config_from_args(args: argparse.Namespace) -> SketchConfig:
    # --dynamic / --ttl exist only on the ingest-flavored subcommands;
    # everywhere else the getattr defaults keep the append-only config.
    ttl = float(getattr(args, "ttl", 0.0) or 0.0)
    dynamic = bool(getattr(args, "dynamic", False)) or ttl > 0.0
    return SketchConfig(k=args.k, seed=args.seed, dynamic_mode=dynamic, ttl=ttl)


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.core.persistence import load_predictor, save_predictor
    from repro.core.registry import build_predictor
    from repro.eval.candidates import sample_two_hop_pairs
    from repro.eval.reporting import format_table
    from repro.exact.oracle import ExactOracle

    edges = _load_edges(args.source, args.seed)
    oracle = ExactOracle()  # used only to enumerate two-hop candidates
    if args.load_checkpoint:
        predictor = load_predictor(args.load_checkpoint)
    else:
        predictor = build_predictor(
            args.method, _config_from_args(args), expected_vertices=None
        )
    for edge in edges:
        predictor.update(edge.u, edge.v)
        oracle.update(edge.u, edge.v)
    if args.save_checkpoint:
        saved = save_predictor(predictor, args.save_checkpoint)
        print(f"checkpoint: {saved} vertex sketches -> {args.save_checkpoint}")
    candidates = sample_two_hop_pairs(oracle.graph, args.pairs, seed=args.seed)
    ranked = predictor.rank_candidates(candidates, args.measure, top=args.top)
    rows = [[u, v, score] for (u, v), score in ranked]
    print(
        format_table(
            ["u", "v", args.measure],
            rows,
            title=(
                f"Top {args.top} predicted links on {args.source} "
                f"({args.method}, k={args.k})"
            ),
        )
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.core.registry import build_predictor
    from repro.eval.candidates import sample_two_hop_pairs
    from repro.eval.experiments import accuracy_profile
    from repro.eval.reporting import format_table
    from repro.exact.oracle import ExactOracle

    edges = _load_edges(args.source, args.seed)
    oracle = ExactOracle()
    predictor = build_predictor(
        args.method, _config_from_args(args), expected_vertices=None
    )
    for edge in edges:
        predictor.update(edge.u, edge.v)
        oracle.update(edge.u, edge.v)
    pairs = sample_two_hop_pairs(oracle.graph, args.pairs, seed=args.seed)
    measures = args.measures.split(",")
    profile = accuracy_profile(predictor, oracle, pairs, measures)
    rows = [
        [measure, summary["mae"], summary["rmse"], summary["mre"]]
        for measure, summary in profile.items()
    ]
    print(
        format_table(
            ["measure", "MAE", "RMSE", "mean rel err"],
            rows,
            title=(
                f"{args.method} (k={args.k}) vs exact on {args.source}, "
                f"{len(pairs)} two-hop pairs"
            ),
        )
    )
    return 0


def _cmd_discover(args: argparse.Namespace) -> int:
    from repro.core.lshindex import LshCandidateIndex, bands_for_threshold
    from repro.core.predictor import MinHashLinkPredictor
    from repro.eval.reporting import format_table

    edges = _load_edges(args.source, args.seed)
    predictor = MinHashLinkPredictor(SketchConfig(k=args.k, seed=args.seed))
    predictor.process(edges)
    bands, rows = bands_for_threshold(args.k, args.threshold)
    index = LshCandidateIndex(
        predictor.export_arrays(), bands=bands, rows=rows, min_degree=args.min_degree
    )
    top = index.top_pairs(predictor, limit=args.top, min_jaccard=args.threshold * 0.7)
    table_rows = [[c.u, c.v, c.jaccard] for c, _ in top]
    print(
        format_table(
            ["u", "v", "Ĵ"],
            table_rows,
            title=(
                f"Most similar vertex pairs on {args.source} "
                f"({bands} bands x {rows} rows, threshold ~{index.threshold:.2f}"
                + (
                    f"; {index.skipped_buckets} overfull buckets skipped)"
                    if index.skipped_buckets
                    else ")"
                )
            ),
            precision=3,
        )
    )
    return 0


def _cmd_triangles(args: argparse.Namespace) -> int:
    from repro.core.triangles import StreamingTriangleCounter
    from repro.eval.reporting import format_table

    edges = _load_edges(args.source, args.seed)
    counter = StreamingTriangleCounter(SketchConfig(k=args.k, seed=args.seed))
    counter.process(edges)
    rows = [
        ["edges", counter.edges_seen],
        ["streaming triangle estimate", counter.triangle_estimate()],
        ["transitivity estimate", counter.transitivity_estimate()],
    ]
    if args.exact:
        from repro.graph.adjacency import AdjacencyGraph
        from repro.graph.algorithms import triangle_count

        exact = triangle_count(AdjacencyGraph.from_edges(edges))
        rows.append(["exact triangles", exact])
        if exact:
            rows.append(
                ["relative error", abs(counter.triangle_estimate() - exact) / exact]
            )
    print(
        format_table(
            ["quantity", "value"], rows, title=f"Triangles: {args.source}"
        )
    )
    return 0


def _metrics_reporter(args: argparse.Namespace, registry):
    """The --metrics-out/--metrics-every flight recorder (or None)."""
    from repro.obs import PeriodicReporter

    if not args.metrics_out:
        if args.metrics_every:
            raise ReproError("--metrics-every needs --metrics-out")
        return None
    return PeriodicReporter(
        registry, args.metrics_out, every_records=args.metrics_every
    )


def _add_metrics_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--metrics-out",
        default="",
        metavar="FILE",
        help="append JSON-lines metrics samples here (see 'monitor')",
    )
    sub.add_argument(
        "--metrics-every",
        type=int,
        default=0,
        metavar="N",
        help="sample cadence in consumed records (0: one final sample)",
    )


def _ingest_guard(args: argparse.Namespace, config: SketchConfig):
    """The casebook :class:`StreamGuard` for ingest, or ``None`` when
    neither ``--case-policy`` nor ``--hub-degree-limit`` was given (the
    legacy parse-level contract)."""
    if not args.case_policy and args.hub_degree_limit is None:
        return None
    from repro.stream import PolicySet, StreamGuard
    from repro.stream.policies import DEFAULT_HUB_DEGREE_LIMIT

    policies = (
        PolicySet.parse(args.case_policy) if args.case_policy else PolicySet()
    )
    return StreamGuard(
        policies,
        self_loops=args.self_loops,
        hub_degree_limit=(
            args.hub_degree_limit
            if args.hub_degree_limit is not None
            else DEFAULT_HUB_DEGREE_LIMIT
        ),
        supports_deletes=config.dynamic_mode,
    )


def _ingest_stat_rows(stats: dict) -> list:
    """Flatten runner stats into table rows, expanding the per-reason
    dead-letter and normalization breakdowns."""
    reasons = stats.pop("dead_letter_reasons")
    normalized = stats.pop("normalized_reasons")
    rows = [[key, value] for key, value in stats.items()]
    rows += [[f"dead_letter[{reason}]", count] for reason, count in reasons.items()]
    rows += [[f"normalized[{reason}]", count] for reason, count in normalized.items()]
    return rows


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Serial ingest, or sharded parallel ingest under ``--workers N``.

    Both runners share the admission contract, so the sink, policy and
    self-loop knobs behave the same either way; sharded checkpoints
    land in per-shard ``shard-NN/`` subdirectories of
    ``--checkpoint-dir`` (what ``query --checkpoint-dir`` and
    ``repro.api.open_engine`` load back).  Sharded ``--metrics-out``
    records a final snapshot of the runner's registry (per-record
    sampling would need a per-record hook the coordinator deliberately
    does not pay for).
    """
    from repro.api import _build_runner, _resolve_source
    from repro.eval.reporting import format_table
    from repro.obs.registry import MetricsRegistry
    from repro.stream.deadletter import FileDeadLetters

    source = _resolve_source(args.source, args.seed, max_retries=args.max_retries)
    if args.resume:
        # Resume preconditions are checked *before* the runner is built
        # (a checkpoint manager creates missing directories, which would
        # turn an operator typo into a silent fresh start).
        if not args.checkpoint_dir:
            raise ReproError("--resume needs --checkpoint-dir")
        if not os.path.isdir(args.checkpoint_dir):
            raise ReproError(
                f"--resume: checkpoint directory {args.checkpoint_dir!r} does not "
                "exist (check the path, or run once without --resume to create it)"
            )
    registry = MetricsRegistry()
    reporter = _metrics_reporter(args, registry)
    config = _config_from_args(args)
    dead_letters = FileDeadLetters(args.dead_letter) if args.dead_letter else None
    runner = _build_runner(
        source,
        config=config,
        workers=args.workers,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        keep=args.keep,
        policy=args.policy,
        self_loops=args.self_loops,
        guard=_ingest_guard(args, config),
        dead_letters=dead_letters,
        reporter=reporter,
        metrics=registry,
    )
    if args.resume:
        if not runner.resume():
            raise ReproError(
                f"--resume: no checkpoints found in {args.checkpoint_dir!r} "
                "(run once without --resume to create the first generation)"
            )
        if args.workers <= 1:
            print(f"resumed from generation {runner.resumed_from} at offset {runner.offset}")
    try:
        stats = runner.run(max_records=args.max_records)
    finally:
        if reporter is not None:
            reporter.close()  # writes the final sample
        if dead_letters is not None:
            dead_letters.close()
    if args.resume and args.workers > 1:
        # Each worker restores its own shard inside run(), so the
        # offsets are known only once they have reported in.
        offsets = [runner.start_offsets[shard] for shard in range(args.workers)]
        print(f"resumed {args.workers} shards from offsets {offsets}")
    title = f"Ingest: {args.source}"
    if args.workers > 1:
        title += f" ({args.workers} shard workers)"
    print(format_table(["metric", "value"], _ingest_stat_rows(stats), title=title))
    if args.metrics_out:
        print(f"metrics: {reporter.samples_written} samples -> {args.metrics_out}")
    return 0


def _query_rows(args: argparse.Namespace, engine, reporter=None) -> list:
    """Resolve the query mode (pair file vs top-k) into result rows."""
    if bool(args.pairs_file) == (args.vertex is not None):
        raise ReproError("query needs exactly one of --pairs-file or --vertex")
    if args.pairs_file:
        from repro.graph.io import read_edge_list

        if not os.path.exists(args.pairs_file):
            raise ReproError(f"pair file {args.pairs_file!r} does not exist")
        pairs = [
            (edge.u, edge.v)
            for edge in read_edge_list(args.pairs_file, allow_self_loops=True)
        ]
        # Score in --metrics-every sized slices so the reporter samples
        # mid-flight; one slice (= one kernel dispatch loop) otherwise.
        step = args.metrics_every if args.metrics_every else len(pairs) or 1
        rows = []
        for lo in range(0, len(pairs), step):
            chunk = pairs[lo : lo + step]
            scores = engine.score_many(chunk, args.measure)
            rows += [[u, v, float(score)] for (u, v), score in zip(chunk, scores)]
            if reporter is not None:
                reporter.tick(len(chunk))
        return rows
    ranked = engine.top_k(
        args.vertex,
        args.measure,
        k=args.top,
        prune=False if args.no_prune else None,  # None: engine's per-measure default
    )
    if reporter is not None:
        reporter.tick()
    return [[args.vertex, v, score] for v, score in ranked]


def _emit_query_results(args: argparse.Namespace, rows: list, stats: dict) -> None:
    import json as json_module

    from repro.eval.reporting import format_table

    out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        if args.format == "csv":
            out.write(f"u,v,{args.measure}\n")
            for u, v, score in rows:
                out.write(f"{u},{v},{score!r}\n")
        elif args.format == "json":
            json_module.dump(
                {
                    "measure": args.measure,
                    "results": [
                        {"u": u, "v": v, "score": score} for u, v, score in rows
                    ],
                    "stats": stats,
                },
                out,
                indent=2,
            )
            out.write("\n")
        else:
            print(
                format_table(
                    ["u", "v", args.measure],
                    rows,
                    title=f"Batch scores ({len(rows)} results)",
                    precision=4,
                ),
                file=out,
            )
            stat_rows = [[key, value] for key, value in stats.items()]
            print(
                format_table(["stat", "value"], stat_rows, title="Engine stats"),
                file=out,
            )
    finally:
        if out is not sys.stdout:
            out.close()


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.api import ingest, open_engine
    from repro.obs import MetricsRegistry, Tracer, render_trace

    registry = MetricsRegistry()
    tracer = Tracer(registry)
    with tracer.span("query"):
        with tracer.span("warm"):
            if args.load_checkpoint and args.checkpoint_dir:
                raise ReproError(
                    "query takes --load-checkpoint (one .npz) or "
                    "--checkpoint-dir (an ingest directory), not both"
                )
            if args.load_checkpoint:
                target = args.load_checkpoint
            elif args.checkpoint_dir:
                if not os.path.isdir(args.checkpoint_dir):
                    raise ReproError(
                        f"--checkpoint-dir: {args.checkpoint_dir!r} is not a directory"
                    )
                target = args.checkpoint_dir
            elif args.source:
                target = ingest(
                    args.source,
                    config=_config_from_args(args),
                    seed=args.seed,
                    policy="strict",
                    self_loops="drop",
                ).predictor
            else:
                raise ReproError(
                    "query needs a source (dataset/edge list), --load-checkpoint, "
                    "or --checkpoint-dir"
                )
        with tracer.span("pack"):
            # A checkpoint is read, verified and packed here in one step.
            engine = open_engine(target, metrics=registry)
        reporter = _metrics_reporter(args, registry)
        try:
            with tracer.span("score"):
                rows = _query_rows(args, engine, reporter)
        finally:
            if reporter is not None:
                reporter.close()  # writes the final sample
    _emit_query_results(args, rows, engine.stats())
    if args.format == "table":
        print(render_trace(tracer.traces[-1]))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.api import serve as api_serve

    if args.load_checkpoint and args.checkpoint_dir and not args.source:
        raise ReproError(
            "serve takes --load-checkpoint (one .npz) or --checkpoint-dir "
            "(an ingest directory), not both"
        )
    policies = args.case_policy or None
    if args.source:
        # Live mode: background ingest + periodic hot swap.
        server = api_serve(
            source=args.source,
            config=_config_from_args(args),
            host=args.host,
            port=args.port,
            refresh_every=args.refresh_every,
            drain_timeout=args.drain_timeout,
            checkpoint_dir=args.checkpoint_dir or None,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
            keep=args.keep,
            policy=args.policy,
            self_loops=args.self_loops,
            policies=policies,
            max_retries=args.max_retries,
            seed=args.seed,
            announce=lambda url: print(f"serving {url}", flush=True),
        )
    else:
        target = args.load_checkpoint or args.checkpoint_dir
        if not target:
            raise ReproError(
                "serve needs a source (dataset/edge list) for live ingest, or "
                "--load-checkpoint/--checkpoint-dir for static serving"
            )
        if args.resume:
            raise ReproError("--resume is a live-mode flag (pass a source too)")
        server = api_serve(
            target,
            host=args.host,
            port=args.port,
            drain_timeout=args.drain_timeout,
            announce=lambda url: print(f"serving {url}", flush=True),
        )
    return server.run()


def _load_snapshot(path: str) -> dict:
    """Read a metrics snapshot: one JSON document, or the last line of
    a ``--metrics-out`` JSON-lines flight record."""
    import json as json_module

    if not os.path.exists(path):
        raise ReproError(f"metrics file {path!r} does not exist")
    text = open(path, "r", encoding="utf-8").read()
    try:
        loaded = json_module.loads(text)
    except ValueError:
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ReproError(f"metrics file {path!r} is empty") from None
        try:
            loaded = json_module.loads(lines[-1])
        except ValueError as error:
            raise ReproError(f"metrics file {path!r} is not JSON: {error}") from None
    if not isinstance(loaded, dict) or "instruments" not in loaded:
        raise ReproError(
            f"metrics file {path!r} is not a repro.obs snapshot "
            "(expected an object with an 'instruments' list)"
        )
    return loaded


def _format_series_labels(name: str, labels: dict) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


def _fetch_snapshot(url: str) -> dict:
    """Scrape a running server's ``/metrics`` endpoint as a snapshot.

    Requests the JSON exposition (``Accept: application/json``), which
    the serving tier renders via :func:`repro.obs.export.snapshot` —
    the same schema ``--metrics-out`` files hold, so the rendering
    below is shared between the offline and live paths.
    """
    import json as json_module
    import urllib.error
    import urllib.request

    if "://" not in url:
        url = f"http://{url}"
    if not url.startswith(("http://", "https://")):
        raise ReproError(f"--url must be an http(s) URL, got {url!r}")
    request = urllib.request.Request(url, headers={"Accept": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            text = response.read().decode("utf-8")
    except (urllib.error.URLError, OSError, TimeoutError) as error:
        raise ReproError(f"could not scrape {url!r}: {error}") from None
    try:
        loaded = json_module.loads(text)
    except ValueError as error:
        raise ReproError(
            f"{url!r} did not return JSON ({error}); point --url at the "
            "server's /metrics endpoint"
        ) from None
    if not isinstance(loaded, dict) or "instruments" not in loaded:
        raise ReproError(
            f"{url!r} is not a repro.obs snapshot endpoint "
            "(expected an object with an 'instruments' list)"
        )
    return loaded


def _cmd_monitor(args: argparse.Namespace) -> int:
    import datetime

    from repro.eval.reporting import format_table

    if bool(args.metrics_file) == bool(args.url):
        raise ReproError(
            "monitor needs exactly one of a metrics file or --url http://host:port/v1/metrics"
        )
    if args.url:
        loaded = _fetch_snapshot(args.url)
        source_label = args.url
    else:
        loaded = _load_snapshot(args.metrics_file)
        source_label = args.metrics_file
    when = datetime.datetime.fromtimestamp(loaded.get("ts", 0)).isoformat(sep=" ")
    scalar_rows = []
    histogram_rows = []
    for instrument in loaded.get("instruments", []):
        name = instrument.get("name", "?")
        for series in instrument.get("series", []):
            label = _format_series_labels(name, series.get("labels", {}))
            if instrument.get("type") == "histogram":
                histogram_rows.append(
                    [
                        label,
                        series.get("count", 0),
                        series.get("sum", 0.0),
                        series.get("p50", 0.0),
                        series.get("p95", 0.0),
                        series.get("p99", 0.0),
                    ]
                )
            else:
                scalar_rows.append([label, instrument.get("type", "?"), series.get("value")])
    if scalar_rows:
        print(
            format_table(
                ["instrument", "type", "value"],
                scalar_rows,
                title=f"Metrics snapshot @ {when} ({source_label})",
                precision=4,
            )
        )
    if histogram_rows:
        print(
            format_table(
                ["histogram", "count", "sum s", "p50 s", "p95 s", "p99 s"],
                histogram_rows,
                title="Latency distributions (quantiles estimated from buckets)",
                precision=6,
            )
        )
    if not scalar_rows and not histogram_rows:
        print(f"(snapshot at {when} holds no instruments)")
    return 0


def _cmd_casebook(args: argparse.Namespace) -> int:
    from repro.eval.reporting import format_table
    from repro.stream.casebook import (
        CASEBOOK,
        SyntheticCorpusGenerator,
        check_casebook,
    )

    if args.write_corpus:
        generator = SyntheticCorpusGenerator(
            args.seed,
            per_case=args.per_case,
            hub_degree_limit=args.hub_degree_limit,
            with_deletes=args.with_deletes,
        )
        lines = generator.hostile_lines()
        with open(args.write_corpus, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
        print(f"hostile corpus: {len(lines)} lines -> {args.write_corpus}")
    taxonomy_rows = [
        [
            case.reason,
            case.level,
            case.default_policy,
            "yes" if case.repairable else "no",
            case.repair,
        ]
        for case in CASEBOOK
    ]
    print(
        format_table(
            ["case", "level", "default", "repairable", "normalize-mode repair"],
            taxonomy_rows,
            title="Adversarial input casebook (docs/CASEBOOK.md)",
        )
    )
    if not args.check:
        return 0
    report = check_casebook(
        seed=args.seed,
        per_case=args.per_case,
        hub_degree_limit=args.hub_degree_limit,
        workers=args.check_workers,
        with_deletes=args.with_deletes,
    )
    disposition_rows = [
        [row.case, row.mode, row.expected, f"{row.matched}/{row.total}"]
        for row in report.rows
    ]
    print(
        format_table(
            ["case", "mode", "expected disposition", "matched"],
            disposition_rows,
            title=(
                f"Casebook replay: {args.per_case} instances per case "
                "under each uniform policy mode"
            ),
        )
    )
    checks = [
        ("normalize-everything converges to clean ingest", report.normalize_converged),
        ("quarantine + dead-letter replay converges", report.replay_converged),
    ]
    if report.sharded_normalize_converged is not None:
        checks.append(
            (
                f"sharded (x{args.check_workers}) normalize converges",
                report.sharded_normalize_converged,
            )
        )
        checks.append(
            (
                f"sharded (x{args.check_workers}) quarantine + replay converges",
                report.sharded_replay_converged,
            )
        )
    for label, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {label}")
    for mismatch in report.mismatches:
        print(f"MISMATCH  {mismatch}")
    if not report.ok:
        print("casebook check FAILED", file=sys.stderr)
        return 1
    print("casebook check OK")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Delegate to the analysis CLI so `repro-linkpred lint` and
    # `python -m repro.analysis` are the same tool with the same flags.
    from repro.analysis.cli import main as lint_main

    argv: list = list(args.paths) + ["--format", args.format]
    if args.baseline is not None:
        argv += ["--baseline", args.baseline]
    if args.no_baseline:
        argv.append("--no-baseline")
    if args.write_baseline is not None:
        argv += ["--write-baseline", args.write_baseline]
    if args.output is not None:
        argv += ["--output", args.output]
    return lint_main(argv)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed separately for the CLI tests).

    Argument conventions, normalized across every subcommand:

    * ``--seed`` is accepted both globally (``repro-linkpred --seed 7
      predict ...``, the historic spelling) and *per subcommand*
      (``repro-linkpred predict --seed 7 ...``); the subcommand
      position wins when both are given.
    * ``--k`` is the sketch size everywhere it applies.
    * Sampled-pair counts are ``--pairs`` everywhere (``predict`` keeps
      its old ``--candidates`` spelling as a hidden alias).
    * Checkpoint *directories* are ``--checkpoint-dir`` everywhere
      (``ingest``, and now ``query`` for serving from one); single
      ``.npz`` snapshot files stay ``--save-checkpoint`` /
      ``--load-checkpoint``.
    """
    parser = argparse.ArgumentParser(
        prog="repro-linkpred",
        description="Sketch-based streaming link prediction (ICDE 2016 reproduction)",
    )
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    commands = parser.add_subparsers(dest="command", required=True)

    def add_seed_argument(sub: argparse.ArgumentParser) -> None:
        # SUPPRESS keeps the global --seed's parsed value when the
        # subcommand flag is absent (a plain default would clobber it).
        sub.add_argument(
            "--seed",
            type=int,
            default=argparse.SUPPRESS,
            help="random seed (overrides the global --seed)",
        )

    datasets_cmd = commands.add_parser("datasets", help="list registry datasets")
    add_seed_argument(datasets_cmd)
    datasets_cmd.set_defaults(run=_cmd_datasets)

    stats = commands.add_parser("stats", help="constant-memory stream statistics")
    stats.add_argument("source", help="dataset name or edge-list path")
    add_seed_argument(stats)
    stats.set_defaults(run=_cmd_stats)

    def add_method_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("source", help="dataset name or edge-list path")
        sub.add_argument(
            "--method",
            default="minhash",
            choices=["minhash", "biased", "exact", "neighbor_reservoir"],
        )
        sub.add_argument("--k", type=int, default=128, help="sketch slots per vertex")
        add_seed_argument(sub)

    predict = commands.add_parser("predict", help="rank likely future links")
    add_method_arguments(predict)
    predict.add_argument("--measure", default="adamic_adar")
    predict.add_argument(
        "--pairs",
        type=int,
        default=2000,
        help="two-hop candidate pairs to sample and rank",
    )
    predict.add_argument(  # pre-1.1 spelling, kept working but undocumented
        "--candidates",
        dest="pairs",
        type=int,
        default=argparse.SUPPRESS,
        help=argparse.SUPPRESS,
    )
    predict.add_argument("--top", type=int, default=20)
    predict.add_argument(
        "--save-checkpoint", default="", help="write sketch state to this .npz"
    )
    predict.add_argument(
        "--load-checkpoint",
        default="",
        help="resume from a checkpoint instead of a fresh predictor "
        "(minhash method only)",
    )
    predict.set_defaults(run=_cmd_predict)

    discover = commands.add_parser(
        "discover", help="LSH self-join: most similar vertex pairs"
    )
    discover.add_argument("source", help="dataset name or edge-list path")
    discover.add_argument("--k", type=int, default=256)
    discover.add_argument(
        "--threshold", type=float, default=0.6, help="S-curve similarity cut"
    )
    discover.add_argument("--top", type=int, default=20)
    discover.add_argument("--min-degree", type=int, default=3)
    add_seed_argument(discover)
    discover.set_defaults(run=_cmd_discover)

    triangles = commands.add_parser(
        "triangles", help="one-pass streaming triangle count"
    )
    triangles.add_argument("source", help="dataset name or edge-list path")
    triangles.add_argument("--k", type=int, default=256)
    triangles.add_argument(
        "--exact", action="store_true", help="also compute the exact count"
    )
    add_seed_argument(triangles)
    triangles.set_defaults(run=_cmd_triangles)

    ingest = commands.add_parser(
        "ingest", help="fault-tolerant checkpointed ingestion (resumable)"
    )
    ingest.add_argument("source", help="dataset name or edge-list path")
    ingest.add_argument("--k", type=int, default=128, help="sketch slots per vertex")
    add_seed_argument(ingest)
    ingest.add_argument(
        "--dynamic",
        action="store_true",
        help="deletion-tolerant (fully dynamic) sketches: accept "
        "'op u v [t]' records where op is add/delete/+/- "
        "(see docs/OPERATIONS.md)",
    )
    ingest.add_argument(
        "--ttl",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="sliding-window expiry: edges unseen for SECONDS of stream "
        "time drop out of every estimate (implies --dynamic; 0: no expiry)",
    )
    ingest.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="shard worker processes (1: serial in-process ingest; >1 "
        "partitions the stream and merges to a bit-identical predictor)",
    )
    ingest.add_argument(
        "--checkpoint-dir", default="", help="directory for rotated checkpoint generations"
    )
    ingest.add_argument(
        "--checkpoint-every",
        type=int,
        default=1000,
        metavar="N",
        help="snapshot state every N consumed records (0: only at end)",
    )
    ingest.add_argument(
        "--resume",
        action="store_true",
        help="restore (state, offset) from the newest intact checkpoint",
    )
    ingest.add_argument(
        "--keep", type=int, default=3, help="checkpoint generations to retain"
    )
    ingest.add_argument(
        "--dead-letter",
        default="",
        metavar="FILE",
        help="append quarantined records to this JSON-lines file",
    )
    ingest.add_argument(
        "--policy",
        default="quarantine",
        choices=["quarantine", "strict"],
        help="malformed-record policy: route aside, or fail fast",
    )
    ingest.add_argument(
        "--self-loops",
        default="quarantine",
        choices=["quarantine", "drop"],
        help="self-loop handling: count in the dead-letter channel, or drop silently",
    )
    ingest.add_argument(
        "--case-policy",
        default="",
        metavar="SPEC",
        help="casebook per-case policies: a uniform mode ('strict', "
        "'normalize'), 'default', or 'case=mode,...' overrides "
        "(e.g. 'duplicate_edge=normalize,hub_anomaly=strict'); "
        "activates stream-level detection — see docs/CASEBOOK.md",
    )
    ingest.add_argument(
        "--hub-degree-limit",
        type=int,
        default=None,
        metavar="D",
        help="degree past which a vertex is a hub anomaly (implies the "
        "default --case-policy when given alone)",
    )
    ingest.add_argument(
        "--max-retries",
        type=int,
        default=5,
        help="consecutive transient I/O failures tolerated before giving up",
    )
    ingest.add_argument(
        "--max-records", type=int, default=None, help="stop after N records (drills)"
    )
    _add_metrics_arguments(ingest)
    ingest.set_defaults(run=_cmd_ingest)

    query = commands.add_parser(
        "query", help="batch-score a pair file or serve a top-k query"
    )
    query.add_argument(
        "source",
        nargs="?",
        default="",
        help="dataset name or edge-list path to ingest (omit with --load-checkpoint)",
    )
    query.add_argument("--k", type=int, default=128, help="sketch slots per vertex")
    add_seed_argument(query)
    query.add_argument(
        "--load-checkpoint",
        default="",
        metavar="NPZ",
        help="serve from a saved checkpoint instead of ingesting a stream",
    )
    query.add_argument(
        "--checkpoint-dir",
        default="",
        metavar="DIR",
        help="serve from an ingest checkpoint directory (serial or "
        "sharded shard-NN layout; newest intact generation wins)",
    )
    query.add_argument(
        "--pairs-file",
        default="",
        metavar="FILE",
        help="score every 'u v' pair in this file (comments/# allowed)",
    )
    query.add_argument(
        "--vertex",
        type=int,
        default=None,
        metavar="U",
        help="top-k mode: find the best partners of this vertex",
    )
    query.add_argument("--top", type=int, default=10, help="top-k result size")
    query.add_argument(
        "--no-prune",
        action="store_true",
        help="top-k mode: score all vertices instead of LSH candidates",
    )
    query.add_argument("--measure", default="jaccard")
    query.add_argument(
        "--format",
        default="table",
        choices=["table", "csv", "json"],
        help="output shape (table includes the engine stats block)",
    )
    query.add_argument(
        "--output", default="", metavar="FILE", help="write results here instead of stdout"
    )
    _add_metrics_arguments(query)
    query.set_defaults(run=_cmd_query)

    serve = commands.add_parser(
        "serve",
        help="always-on HTTP serving tier with zero-downtime hot swap",
    )
    serve.add_argument(
        "source",
        nargs="?",
        default="",
        help="dataset name or edge-list path to ingest live in the "
        "background (omit for static serving from a checkpoint)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8080, help="bind port (0: ephemeral)"
    )
    serve.add_argument("--k", type=int, default=128, help="sketch slots per vertex")
    add_seed_argument(serve)
    serve.add_argument(
        "--load-checkpoint",
        default="",
        metavar="NPZ",
        help="serve one frozen generation from a saved .npz snapshot",
    )
    serve.add_argument(
        "--checkpoint-dir",
        default="",
        metavar="DIR",
        help="without a source: serve statically from this ingest "
        "directory; with a source: write rotated checkpoints here "
        "(and --resume restores from them)",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=1000,
        metavar="N",
        help="live mode: snapshot state every N consumed records",
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        help="live mode: restore (state, offset) from the newest "
        "checkpoint before serving",
    )
    serve.add_argument(
        "--keep", type=int, default=3, help="checkpoint generations to retain"
    )
    serve.add_argument(
        "--refresh-every",
        type=float,
        default=5.0,
        metavar="S",
        help="seconds between generation hot-swaps in live mode "
        "(0: publish only once the stream is exhausted)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="S",
        help="seconds the SIGTERM drain waits for in-flight requests",
    )
    serve.add_argument(
        "--policy",
        default="quarantine",
        choices=["quarantine", "strict"],
        help="malformed-record policy for live ingest",
    )
    serve.add_argument(
        "--self-loops",
        default="quarantine",
        choices=["quarantine", "drop"],
        help="self-loop handling for live ingest",
    )
    serve.add_argument(
        "--case-policy",
        default="",
        metavar="SPEC",
        help="casebook per-case policies for live ingest (see 'ingest')",
    )
    serve.add_argument(
        "--max-retries",
        type=int,
        default=5,
        help="transient source I/O failures tolerated before giving up",
    )
    serve.set_defaults(run=_cmd_serve)

    casebook = commands.add_parser(
        "casebook",
        help="the adversarial input casebook: taxonomy, and --check replay",
    )
    add_seed_argument(casebook)
    casebook.add_argument(
        "--check",
        action="store_true",
        help="replay a labeled hostile corpus under all three policy "
        "modes and verify dispositions + replay convergence",
    )
    casebook.add_argument(
        "--per-case",
        type=int,
        default=2,
        metavar="N",
        help="hostile instances injected per case in the corpus",
    )
    casebook.add_argument(
        "--hub-degree-limit",
        type=int,
        default=6,
        metavar="D",
        help="hub threshold for the synthetic corpus (small on purpose)",
    )
    casebook.add_argument(
        "--check-workers",
        type=int,
        default=0,
        metavar="N",
        help="additionally prove convergence through N shard workers",
    )
    casebook.add_argument(
        "--write-corpus",
        default="",
        metavar="FILE",
        help="also write the hostile corpus lines to this file",
    )
    casebook.add_argument(
        "--with-deletes",
        action="store_true",
        help="use the deletion-bearing corpus variant: valid add/delete "
        "pairs in the clean backbone, delete_unseen_edge injections, "
        "and dynamic-mode predictors for the convergence proofs",
    )
    casebook.set_defaults(run=_cmd_casebook)

    monitor = commands.add_parser(
        "monitor", help="render a metrics snapshot as human-readable tables"
    )
    monitor.add_argument(
        "metrics_file",
        nargs="?",
        default="",
        help="a --metrics-out JSON-lines file (last sample wins) or a saved snapshot",
    )
    monitor.add_argument(
        "--url",
        default="",
        metavar="URL",
        help="scrape a running server instead: http://host:port/v1/metrics",
    )
    add_seed_argument(monitor)
    monitor.set_defaults(run=_cmd_monitor)

    evaluate = commands.add_parser("evaluate", help="accuracy vs the exact oracle")
    add_method_arguments(evaluate)
    evaluate.add_argument(
        "--measures", default="jaccard,common_neighbors,adamic_adar"
    )
    evaluate.add_argument("--pairs", type=int, default=1000)
    evaluate.set_defaults(run=_cmd_evaluate)

    lint = commands.add_parser(
        "lint", help="repro-lint: AST invariant checks (see docs/LINT.md)"
    )
    lint.add_argument("paths", nargs="+", metavar="PATH")
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument("--baseline", default=None, metavar="FILE")
    lint.add_argument("--no-baseline", action="store_true")
    lint.add_argument("--write-baseline", default=None, metavar="FILE")
    lint.add_argument("--output", default=None, metavar="FILE")
    lint.set_defaults(run=_cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
