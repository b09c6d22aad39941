"""E17 — the serving tier under live load: QPS, p99, zero torn reads.

The gate for ``repro.serve.server``: a real :class:`SketchServer` is
started over a growing edge feed (background ingest + periodic
generation hot-swaps) and driven closed-loop by
:mod:`repro.serve.loadgen` while the feed keeps growing.  The run
passes only if, with ingest and ≥3 snapshot hot-swaps happening
*during* the measurement window:

* **zero failed reads** — every request returns 200 with a well-formed
  body of the right length;
* **zero torn reads** — no generation number is ever observed with two
  pack fingerprints (the hot-swap is a single reference assignment;
  this is the empirical check of that claim);
* **≥ 3 generations** are actually served within the window (the swaps
  happened under load, not before or after it);
* **sustained QPS** and **p99 latency** clear the floor/ceiling for
  the scale;
* **bit-identity** — sampled responses are re-scored *offline*: each
  sampled generation's packed arrays are rebuilt into an independent
  predictor (:meth:`PackedSketches.to_predictor`), wrapped in a fresh
  :class:`QueryEngine`, and ``score_many`` must reproduce the served
  float64 scores exactly;
* the final SIGTERM-style drain completes cleanly and leaves a
  checkpoint.

Usage::

    python benchmarks/bench_e17_serving.py --smoke --json BENCH_e17_serving.json

``--smoke`` is the CI scale (a few seconds of load); the default scale
runs longer and holds higher bars.  Exit code 0 iff every gate holds.
"""

from __future__ import annotations

import os
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np

from _common import emit, emit_json, bench_arg_parser
from repro.serve.engine import QueryEngine
from repro.serve.loadgen import run_load
from repro.serve.server import SketchServer
from repro.stream.checkpoint import CheckpointManager
from repro.stream.runner import StreamRunner
from repro.stream.sources import FileEdgeSource

EXPERIMENT = "e17_serving"


class _Gates:
    """Scale-dependent pass bars."""

    def __init__(self, smoke: bool) -> None:
        self.smoke = smoke
        # Load shape.
        self.duration = 4.0 if smoke else 12.0
        self.workers = 4 if smoke else 8
        self.batch_pairs = 16
        self.vertices = 200 if smoke else 1000
        self.initial_edges = 2000 if smoke else 20000
        self.append_edges = 400 if smoke else 2000
        self.append_every = 0.25
        self.refresh_every = 0.4 if smoke else 0.8
        # Bars.  QPS/latency are deliberately conservative: shared CI
        # runners are noisy, and the *correctness* gates (failures,
        # torn reads, swaps, bit-identity) are the point of E17.  Local
        # hardware sustains ~1.2k QPS at p99 < 10 ms on this shape.
        self.min_qps = 100.0 if smoke else 300.0
        self.max_p99_seconds = 0.25 if smoke else 0.10
        self.min_generations = 3
        self.min_samples = 8


def _appender(feed: Path, gates: _Gates, stop: threading.Event, seed: int) -> None:
    """Keep the feed growing so ingest (and hence hot-swaps) continue
    throughout the measurement window."""
    rng = np.random.default_rng(seed)
    while not stop.wait(gates.append_every):
        block = rng.integers(0, gates.vertices, size=(gates.append_edges, 2))
        with feed.open("a", encoding="utf-8") as handle:
            for u, v in block.tolist():
                handle.write(f"{u} {v}\n")


def _verify_bit_identity(report, history) -> tuple:
    """Re-score every sampled response offline; returns (checked, errors).

    For each sampled generation: find the retained Generation, rebuild
    an independent predictor from its packed arrays, and demand exact
    float64 equality with what the server returned over HTTP.
    """
    retained = {generation.number: generation for generation in history}
    engines = {}
    checked, errors = 0, []
    for sample in report.samples:
        generation = retained.get(sample.generation)
        if generation is None:
            continue  # swapped out of the bounded history; fine
        if generation.fingerprint != sample.fingerprint:
            errors.append(
                f"generation {sample.generation}: served fingerprint "
                f"{sample.fingerprint[:12]} != retained {generation.fingerprint[:12]}"
            )
            continue
        engine = engines.get(sample.generation)
        if engine is None:
            # The independent path: packed arrays -> fresh predictor ->
            # fresh pack -> fresh engine.  Shares no state with the one
            # that answered over HTTP.
            engine = QueryEngine(generation.engine.store.to_predictor())
            if engine.store.fingerprint() != generation.fingerprint:
                errors.append(
                    f"generation {sample.generation}: to_predictor round-trip "
                    "changed the fingerprint"
                )
                continue
            engines[sample.generation] = engine
        offline = engine.score_many(sample.pairs, sample.measure)
        if not np.array_equal(offline, sample.scores):
            worst = int(np.argmax(offline != sample.scores))
            errors.append(
                f"generation {sample.generation}: served score "
                f"{sample.scores[worst]!r} != offline {offline[worst]!r} "
                f"for pair {sample.pairs[worst].tolist()}"
            )
            continue
        checked += 1
    return checked, errors


def main(argv=None) -> int:
    parser = bench_arg_parser("E17: serving-tier QPS/p99/torn-read gate")
    parser.add_argument("--seed", type=int, default=0)
    arguments = parser.parse_args(argv)
    gates = _Gates(arguments.smoke)
    rng = np.random.default_rng(arguments.seed)

    workdir = Path(tempfile.mkdtemp(prefix="bench_e17_"))
    feed = workdir / "feed.txt"
    with feed.open("w", encoding="utf-8") as handle:
        for u, v in rng.integers(0, gates.vertices, size=(gates.initial_edges, 2)).tolist():
            handle.write(f"{u} {v}\n")

    from repro.core.config import SketchConfig

    runner = StreamRunner(
        FileEdgeSource(feed),
        config=SketchConfig(k=32, seed=arguments.seed, track_witnesses=True),
        checkpoint_manager=CheckpointManager(workdir / "checkpoints"),
        checkpoint_every=50_000,  # the drain writes the one that matters
    )
    server = SketchServer(
        runner=runner,
        port=0,
        refresh_every=gates.refresh_every,
        ingest_chunk=2048,
        idle_wait=0.02,
        keep_history=64,
        drain_timeout=10.0,
    )
    server_thread = threading.Thread(
        target=lambda: server.run(install_signals=False), daemon=True
    )
    server_thread.start()
    if not server.wait_ready(30):
        print("FAIL  server never became ready", file=sys.stderr)
        return 1

    stop_appending = threading.Event()
    appender = threading.Thread(
        target=_appender, args=(feed, gates, stop_appending, arguments.seed + 1), daemon=True
    )
    appender.start()
    pool = rng.integers(0, gates.vertices, size=(4096, 2))
    report = run_load(
        "127.0.0.1",
        server.port,
        pool,
        measure="jaccard",
        workers=gates.workers,
        duration=gates.duration,
        batch_pairs=gates.batch_pairs,
        record_samples=max(2, gates.min_samples // gates.workers),
        seed=arguments.seed,
    )
    stop_appending.set()
    appender.join()

    server.request_shutdown()
    drained = server.wait_finished(30)
    server_thread.join(timeout=5)
    final_checkpoints = sorted((workdir / "checkpoints").glob("checkpoint-*.npz"))

    checked, identity_errors = _verify_bit_identity(report, server.history)

    summary = report.summary()
    summary["identity_samples_checked"] = checked
    summary["drained_cleanly"] = bool(drained)
    summary["final_checkpoints"] = len(final_checkpoints)
    summary["cores"] = os.cpu_count() or 1
    p99 = report.latency_quantile(0.99)

    checks = [
        ("zero failed reads", report.failures == 0),
        ("zero torn reads across hot-swaps", report.torn_reads == 0),
        (
            f">= {gates.min_generations} generations served under load "
            f"(saw {len(report.generations)})",
            len(report.generations) >= gates.min_generations,
        ),
        (
            f"sustained QPS >= {gates.min_qps:.0f} (saw {report.qps:.0f})",
            report.qps >= gates.min_qps,
        ),
        (
            f"p99 <= {gates.max_p99_seconds * 1e3:.0f} ms "
            f"(saw {p99 * 1e3:.2f} ms)",
            p99 <= gates.max_p99_seconds,
        ),
        (
            f"offline bit-identity on >= {gates.min_samples} sampled responses "
            f"(checked {checked}, {len(identity_errors)} mismatches)",
            checked >= gates.min_samples and not identity_errors,
        ),
        ("graceful drain completed", drained),
        ("drain left a final checkpoint", len(final_checkpoints) > 0),
    ]

    lines = [
        f"scale={'smoke' if gates.smoke else 'full'}  workers={gates.workers}  "
        f"duration={gates.duration:.0f}s  refresh_every={gates.refresh_every}s",
        f"requests={report.requests}  qps={report.qps:.0f}  "
        f"pairs/s={report.pairs_per_second:.0f}",
        f"latency p50={report.latency_quantile(0.5) * 1e3:.2f}ms  "
        f"p95={report.latency_quantile(0.95) * 1e3:.2f}ms  p99={p99 * 1e3:.2f}ms",
        f"generations={sorted(report.generations)}  torn={report.torn_reads}  "
        f"failures={report.failures}",
        f"bit-identity: {checked} sampled responses re-scored offline, "
        f"{len(identity_errors)} mismatches",
    ]
    for error in identity_errors[:5]:
        lines.append(f"  identity mismatch: {error}")
    for error in report.errors[:5]:
        lines.append(f"  request error: {error}")
    failed = [label for label, passed in checks if not passed]
    for label, passed in checks:
        lines.append(f"{'PASS' if passed else 'FAIL'}  {label}")
    emit(EXPERIMENT, "\n".join(lines))
    emit_json(EXPERIMENT, summary, arguments.json or None)
    if failed:
        print(f"E17 FAILED: {len(failed)} gate(s): {'; '.join(failed)}", file=sys.stderr)
        return 1
    print("E17 OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
