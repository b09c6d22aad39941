"""The unified high-level API: five verbs covering the whole pipeline.

This module is the *recommended* entry point for programmatic use —
everything an application needs to reproduce the paper's pipeline fits
in five functions:

* :func:`build_predictor` — construct a sketch predictor (or a
  baseline, by method name);
* :func:`ingest` — consume an edge stream into a predictor, serially
  or sharded across ``workers`` processes, with optional resumable
  checkpoints;
* :func:`open_engine` — wrap a warm predictor, a saved ``.npz``
  snapshot, or a checkpoint directory (serial *or* sharded layout) in
  the batch :class:`~repro.serve.engine.QueryEngine`;
* :func:`evaluate` — measure estimation accuracy against the exact
  oracle on sampled two-hop pairs;
* :func:`serve` — put any of the above behind an always-on HTTP
  service with zero-downtime snapshot hot-swap (static or with live
  background ingest).

The deeper modules (:mod:`repro.core`, :mod:`repro.stream`,
:mod:`repro.parallel`, :mod:`repro.serve`, :mod:`repro.eval`) stay
public for power users — this facade only composes them, it hides
nothing.  ``repro.api.__all__`` is the documented stable surface,
pinned by the test suite; everything here is importable straight off
the package root (``from repro import ingest``).

Sources are polymorphic throughout: a registry dataset name, a path to
a SNAP-format edge list, an :class:`~repro.stream.sources.EdgeSource`,
or any iterable of edges / ``(u, v[, timestamp])`` tuples /
:class:`StreamRecord` values.  The typed
:class:`~repro.graph.stream.StreamRecord` (op + edge + timestamp +
weight) is the canonical stream unit — plain tuples and untyped text
lines are coerced into ``add`` records by the back-compat shim
(:func:`repro.stream.policies.coerce_stream_record`), so every
pre-record caller keeps working unchanged.  Deletions (``op="delete"``)
are consumed when ``config.dynamic_mode`` is on; append-only
configurations dead-letter them as ``unsupported_delete``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Sequence, Union

from repro.core.config import SketchConfig
from repro.errors import ConfigurationError, ReproError
from repro.graph.stream import StreamRecord
from repro.interface import LinkPredictor
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:
    from repro.core.predictor import MinHashLinkPredictor
    from repro.serve.engine import QueryEngine

# Each verb imports the layers it runs inside its body, so that
# ``import repro`` and ``repro ingest`` load neither the serving tier nor
# the method registry (with its baselines and oracle).

__all__ = [
    "IngestReport",
    "StreamRecord",
    "build_predictor",
    "evaluate",
    "ingest",
    "open_engine",
    "serve",
]

SourceLike = Union[str, Path, Iterable]


def build_predictor(
    config: Union[SketchConfig, str, None] = None,
    *args,
    method: str = "minhash",
    expected_vertices: Optional[int] = None,
) -> LinkPredictor:
    """Construct a predictor from a :class:`SketchConfig`.

    The facade spelling is config-first::

        predictor = build_predictor(SketchConfig(k=128, seed=42))
        baseline = build_predictor(config, method="neighbor_reservoir")

    The pre-facade registry spelling ``build_predictor("minhash",
    config, expected_vertices)`` (method name first) is still accepted,
    so existing callers of ``repro.build_predictor`` are unaffected.
    """
    from repro.core.registry import build_predictor as _registry_build

    if isinstance(config, str):
        # Legacy positional form: (method, config?, expected_vertices?).
        return _registry_build(config, *args, expected_vertices=expected_vertices)
    if args:
        raise ConfigurationError(
            "build_predictor(config) takes keyword arguments only "
            "(method=..., expected_vertices=...)"
        )
    return _registry_build(method, config, expected_vertices=expected_vertices)


@dataclass
class IngestReport:
    """What :func:`ingest` hands back: the warm predictor plus health.

    ``runner`` is the underlying :class:`~repro.stream.runner.StreamRunner`
    or :class:`~repro.parallel.ShardedRunner` for callers that want the
    metrics registry, the dead-letter sink, or another ``run()`` leg.
    """

    predictor: MinHashLinkPredictor
    stats: Dict[str, object]
    runner: object

    @property
    def records_ok(self) -> int:
        return int(self.stats.get("records_ok", 0))


def _resolve_source(source: SourceLike, seed: int, *, max_retries: int = 0):
    """Turn any source-like value into an :class:`EdgeSource`."""
    from repro.stream.sources import (
        FileEdgeSource,
        IteratorEdgeSource,
        RetryingSource,
        RetryPolicy,
    )

    if hasattr(source, "records"):  # already an EdgeSource
        resolved = source
    elif isinstance(source, (str, Path)):
        name = str(source)
        if os.path.exists(name):
            resolved = FileEdgeSource(name)
        else:
            from repro.graph import datasets

            if name not in datasets.DATASETS:
                known = ", ".join(datasets.dataset_names())
                raise ReproError(
                    f"{name!r} is neither a registry dataset ({known}) nor a file path"
                )
            resolved = IteratorEdgeSource(
                datasets.load(name, seed=seed), name=f"dataset:{name}"
            )
    else:
        resolved = IteratorEdgeSource(source)
    if max_retries:
        resolved = RetryingSource(resolved, RetryPolicy(max_attempts=max_retries))
    return resolved


def ingest(
    source: SourceLike,
    *,
    config: Optional[SketchConfig] = None,
    workers: int = 1,
    checkpoint_dir: Union[str, Path, None] = None,
    checkpoint_every: int = 0,
    resume: bool = False,
    keep: int = 3,
    policy: str = "quarantine",
    self_loops: str = "quarantine",
    policies: object = None,
    max_records: Optional[int] = None,
    max_retries: int = 0,
    seed: int = 0,
    metrics: Optional[MetricsRegistry] = None,
    batch_size: int = 0,
) -> IngestReport:
    """Consume an edge stream into a predictor; serial or sharded.

    ``workers=1`` runs the serial
    :class:`~repro.stream.runner.StreamRunner`; ``workers>1`` runs the
    sharded :class:`~repro.parallel.ShardedRunner` (which requires a
    mergeable config, i.e. ``degree_mode="exact"``) and returns the
    merged predictor — bit-identical to the serial result on the same
    stream.  ``checkpoint_dir`` + ``checkpoint_every`` arm resumable
    checkpoints (per-shard subdirectories when sharded); ``resume=True``
    restores from them first.  ``seed`` only seeds registry *dataset*
    generation — sketch randomness lives in ``config.seed``.

    ``policies`` opts into the adversarial-input casebook contract: a
    :class:`~repro.stream.policies.PolicySet`, or its CLI string
    spelling (``"strict"``, ``"normalize"``,
    ``"duplicate_edge=normalize,hub_anomaly=strict"``, ...).  ``None``
    keeps the legacy parse-level contract.  See ``docs/CASEBOOK.md``.

    ``batch_size > 1`` routes accepted edges through the vectorized
    block-ingest kernel
    (:meth:`~repro.core.predictor.MinHashLinkPredictor.update_block`)
    in spans of up to that many edges — several times faster at scale
    and bit-identical to scalar ingestion (guard ordering, checkpoints
    and crash recovery included).  ``0``/``1`` keeps the scalar
    per-record path.

    ``config.dynamic_mode=True`` builds the deletion-tolerant
    :class:`~repro.core.dynamic.DynamicMinHashPredictor` instead:
    ``delete``/``-`` records retract edges, a positive ``config.ttl``
    expires idle ones, and both the serial and sharded paths (merges,
    checkpoints, resume) stay bit-identical under any add/delete
    interleaving.  Append-only configurations dead-letter deletes with
    reason ``unsupported_delete``.
    """
    from repro.stream.checkpoint import CheckpointManager
    from repro.stream.runner import StreamRunner

    resolved = _resolve_source(source, seed, max_retries=max_retries)
    common = dict(
        config=config,
        policy=policy,
        self_loops=self_loops,
        policies=policies,
        metrics=metrics,
        batch_size=batch_size,
    )
    if workers > 1:
        from repro.parallel import ShardedRunner

        runner = ShardedRunner(
            resolved,
            workers=workers,
            checkpoint_dir=str(checkpoint_dir) if checkpoint_dir else None,
            checkpoint_every=checkpoint_every,
            keep=keep,
            **common,
        )
    else:
        manager = CheckpointManager(checkpoint_dir, keep=keep) if checkpoint_dir else None
        runner = StreamRunner(
            resolved,
            checkpoint_manager=manager,
            checkpoint_every=checkpoint_every if manager else 0,
            **common,
        )
    if resume:
        if not checkpoint_dir:
            raise ConfigurationError("resume=True needs a checkpoint_dir")
        runner.resume()
    stats = runner.run(max_records=max_records)
    return IngestReport(predictor=runner.predictor, stats=stats, runner=runner)


def _servable(checkpoint):
    """Pack a verified checkpoint's arrays as they are (dynamic CSR
    checkpoints keep the predictor route)."""
    from repro.serve.packed import PackedSketches

    if checkpoint.config.dynamic_mode:
        return checkpoint.to_predictor()
    return PackedSketches.from_arrays(checkpoint.export_arrays(), checkpoint.config)


def _from_checkpoint_dir(directory: Path, metrics: MetricsRegistry):
    """Load a serial *or* sharded checkpoint directory for serving."""
    from repro.stream.checkpoint import CheckpointManager

    shard_dirs = sorted(directory.glob("shard-*"))
    if not shard_dirs:
        checkpoint = CheckpointManager(directory, metrics=metrics).load_latest(_servable)
        if checkpoint is None:
            raise ReproError(f"{directory} holds no checkpoint generations")
        return checkpoint.state
    from repro.core.dynamic import merge_dynamic_shards
    from repro.parallel.worker import shard_directory
    from repro.serve.packed import PackedSketches

    shards = []
    for index, shard_dir in enumerate(shard_dirs):
        if shard_dir != shard_directory(directory, index):
            raise ReproError(
                f"sharded checkpoint layout in {directory} is not contiguous "
                f"(unexpected {shard_dir.name}); cannot merge a partial shard set"
            )
        checkpoint = CheckpointManager(shard_dir, metrics=metrics).load_latest(
            lambda verified: verified
        )
        if checkpoint is None:
            raise ReproError(f"shard directory {shard_dir} holds no checkpoint")
        shards.append(checkpoint.state)
    if shards[0].config.dynamic_mode:
        return merge_dynamic_shards([shard.to_predictor() for shard in shards])
    return PackedSketches.from_shards(shards)


def _servable_from_target(
    target: Union[MinHashLinkPredictor, str, Path], caller: str, metrics: MetricsRegistry
):
    """Resolve a warm predictor, a ``.npz`` file or a checkpoint
    directory (serial or sharded) to what a :class:`QueryEngine` serves;
    ``caller`` names the public verb in the type error."""
    from repro.core.persistence import read_checkpoint

    if isinstance(target, LinkPredictor):
        return target
    if not isinstance(target, (str, Path)):
        raise ConfigurationError(
            f"{caller} needs a predictor or a path, got {type(target).__name__}"
        )
    path = Path(target)
    if path.is_dir():
        return _from_checkpoint_dir(path, metrics)
    if path.is_file():
        return _servable(read_checkpoint(path, metrics=metrics))
    raise ReproError(f"{path} is neither a predictor file nor a checkpoint directory")


def open_engine(
    target: Union[MinHashLinkPredictor, str, Path],
    **engine_options,
) -> QueryEngine:
    """Open a batch :class:`QueryEngine` over warm or persisted state.

    ``target`` may be:

    * a warm :class:`MinHashLinkPredictor` (snapshotted immediately),
    * a ``.npz`` file written by ``save_predictor`` / ``predict
      --save-checkpoint``,
    * a checkpoint *directory* from ``ingest`` — serial
      (``checkpoint-<gen>.npz`` generations, newest intact one) or
      sharded (``shard-NN/`` subdirectories, merged on load).

    Persisted state is packed straight from the verified arrays, with
    no predictor built (dynamic checkpoints excepted).  Keyword options
    pass through to :class:`QueryEngine` (``bands``, ``rows``,
    ``batch_size``, ``metrics``, ...); skipped corrupt generations
    count into its ``checkpoint_corrupt_generations_total``.
    """
    from repro.serve.engine import QueryEngine

    metrics = engine_options.setdefault("metrics", MetricsRegistry())
    return QueryEngine(
        _servable_from_target(target, "open_engine", metrics), **engine_options
    )


def serve(
    target: Union[MinHashLinkPredictor, str, Path, None] = None,
    *,
    source: Optional[SourceLike] = None,
    config: Optional[SketchConfig] = None,
    host: str = "127.0.0.1",
    port: int = 8080,
    refresh_every: float = 5.0,
    drain_timeout: float = 10.0,
    checkpoint_dir: Union[str, Path, None] = None,
    checkpoint_every: int = 1000,
    resume: bool = False,
    keep: int = 3,
    policy: str = "quarantine",
    self_loops: str = "quarantine",
    policies: object = None,
    batch_size: int = 0,
    max_retries: int = 0,
    seed: int = 0,
    metrics: Optional[MetricsRegistry] = None,
    **server_options,
):
    """Configure the always-on HTTP serving tier (the fifth verb).

    Returns a ready-to-run :class:`~repro.serve.server.SketchServer`;
    call ``server.run()`` to serve until SIGTERM (the blocking,
    production spelling — what ``repro-linkpred serve`` does), or start
    it on a thread and use :meth:`~repro.serve.server.SketchServer.
    wait_ready` / :meth:`~repro.serve.server.SketchServer.
    request_shutdown` to embed it.

    Two modes, picked by which argument you pass:

    * ``serve(target)`` — **static**: serve one frozen generation of a
      warm predictor, a saved ``.npz``, or a checkpoint directory
      (anything :func:`open_engine` accepts).
    * ``serve(source=...)`` — **live**: ingest the stream in a
      background thread and hot-swap a freshly packed generation every
      ``refresh_every`` seconds, with zero downtime and no torn reads.
      ``checkpoint_dir``/``checkpoint_every`` arm durable checkpoints
      (written on the usual cadence plus once more during the drain);
      ``resume=True`` restores from them before serving.

    ``port=0`` binds an ephemeral port (read ``server.port`` once
    ready).  Ingest knobs (``policy``, ``policies``, ``batch_size``,
    ``max_retries``, ...) match :func:`ingest`; extra keyword options
    pass through to :class:`~repro.serve.server.SketchServer`
    (``keep_history``, ``stale_after``, ``engine_options``, ...).
    See ``docs/OPERATIONS.md`` ("Running the server") for the runbook.
    """
    from repro.serve.server import SketchServer

    if (target is None) == (source is None):
        raise ConfigurationError(
            "serve needs exactly one of target (static serving) or "
            "source (live ingest + hot swap)"
        )
    if target is not None:
        metrics = metrics if metrics is not None else MetricsRegistry()
        return SketchServer(
            _servable_from_target(target, "serve", metrics),
            host=host,
            port=port,
            refresh_every=0.0,
            drain_timeout=drain_timeout,
            metrics=metrics,
            **server_options,
        )
    from repro.stream.checkpoint import CheckpointManager
    from repro.stream.runner import StreamRunner

    resolved = _resolve_source(source, seed, max_retries=max_retries)
    manager = CheckpointManager(checkpoint_dir, keep=keep) if checkpoint_dir else None
    if resume and manager is None:
        raise ConfigurationError("resume=True needs a checkpoint_dir")
    runner = StreamRunner(
        resolved,
        config=config,
        checkpoint_manager=manager,
        checkpoint_every=checkpoint_every if manager else 0,
        policy=policy,
        self_loops=self_loops,
        policies=policies,
        metrics=metrics,
        batch_size=batch_size,
    )
    if resume:
        runner.resume()
    return SketchServer(
        runner=runner,
        host=host,
        port=port,
        refresh_every=refresh_every,
        drain_timeout=drain_timeout,
        **server_options,
    )


def evaluate(
    source: SourceLike,
    *,
    method: str = "minhash",
    config: Optional[SketchConfig] = None,
    measures: Sequence[str] = ("jaccard", "common_neighbors", "adamic_adar"),
    pairs: int = 1000,
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Estimation accuracy of ``method`` against the exact oracle.

    Ingests the stream into both the chosen method and an exact oracle,
    samples ``pairs`` two-hop candidate pairs (seeded — reruns are
    reproducible), and returns the per-measure error summary
    (``{"jaccard": {"mae": ..., "rmse": ..., "mre": ...}, ...}``) —
    the programmatic twin of ``repro-linkpred evaluate``.
    """
    from repro.eval.candidates import sample_two_hop_pairs
    from repro.eval.experiments import accuracy_profile
    from repro.exact.oracle import ExactOracle
    from repro.stream.policies import ContractViolation, coerce_stream_record

    resolved = _resolve_source(source, seed)
    oracle = ExactOracle()
    predictor = build_predictor(config, method=method)
    for record in resolved.records(0):
        try:
            parsed = coerce_stream_record(record, self_loops="drop")
        except ContractViolation:
            continue  # accuracy evaluation quarantines silently
        # The predictor and oracle are append-only: deletes are skipped.
        if parsed is not None and parsed.op == "add":
            predictor.update(parsed.u, parsed.v)
            oracle.update(parsed.u, parsed.v)
    candidate_pairs = sample_two_hop_pairs(oracle.graph, pairs, seed=seed)
    return accuracy_profile(predictor, oracle, candidate_pairs, list(measures))
