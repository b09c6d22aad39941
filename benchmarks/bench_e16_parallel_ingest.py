"""E16 — sharded parallel ingestion: wall-clock speedup + crash recovery.

Times one pass over a synthetic edge stream through the serial
``StreamRunner`` and through ``ShardedRunner(workers=4)``, asserting the
two predictors are **bit-identical** (the sharded pipeline's headline
contract), then runs a kill-a-worker drill: SIGKILL one shard worker
mid-stream, confirm the coordinator surfaces
:class:`~repro.errors.WorkerCrashError`, resume from the per-shard
checkpoints, and confirm the recovered predictor is bit-identical too.

Acceptance bar (full scale, 1M edges): 4 workers must beat serial by at
least ``SPEEDUP_BAR`` (2x).  The bar gates only when the host actually
has ``WORKERS`` CPUs — on a single-core container the laws of physics
rule a wall-clock speedup out, and short smoke streams spend a visible
fraction of the run on process spawn — otherwise the speedup is
reported, not gated.  The identity and recovery checks gate at every
scale on every host.

Also runnable without pytest for the CI smoke::

    PYTHONPATH=src python benchmarks/bench_e16_parallel_ingest.py --smoke \
        --json results.json
"""

from __future__ import annotations

import os
import random
import signal
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from _common import SCALE, bench_arg_parser, emit, emit_json
from repro.core import SketchConfig
from repro.errors import WorkerCrashError
from repro.eval.reporting import format_table
from repro.parallel import ShardedRunner
from repro.stream import FileEdgeSource, StreamRunner
from repro.stream.sources import EdgeSource

#: Acceptance bar at full scale: 4 workers must at least halve wall clock.
SPEEDUP_BAR = 2.0
WORKERS = 4
CORES = os.cpu_count() or 1

FULL_EDGES = 1_000_000
SMOKE_EDGES = 150_000
EDGES = FULL_EDGES if SCALE == "full" else SMOKE_EDGES
CONFIG = SketchConfig(k=64, seed=7, degree_mode="exact")

ARRAYS = ("vertex_ids", "values", "witnesses", "update_counts", "degrees")

_STATE = {}
_RESULTS = {}


def _write_stream(path, edges, seed=3):
    """Uniform random multigraph stream: every line a distinct arrival."""
    vertices = max(edges // 20, 100)
    rng = random.Random(seed)
    with open(path, "w", encoding="utf-8") as handle:
        for _ in range(edges):
            u = rng.randrange(vertices)
            v = rng.randrange(vertices)
            while v == u:
                v = rng.randrange(vertices)
            handle.write(f"{u} {v}\n")


def _stream_path(edges=EDGES):
    path = _STATE.get(("path", edges))
    if path is None:
        path = Path(tempfile.mkdtemp(prefix="bench-e16-")) / "edges.txt"
        _write_stream(path, edges)
        _STATE[("path", edges)] = path
    return path


def _serial(path):
    runner = StreamRunner(FileEdgeSource(path), config=CONFIG)
    started = time.perf_counter()
    runner.run()
    return time.perf_counter() - started, runner


def _sharded(path, workers=WORKERS):
    runner = ShardedRunner(FileEdgeSource(path), workers=workers, config=CONFIG)
    started = time.perf_counter()
    runner.run()
    return time.perf_counter() - started, runner


def _mismatches(ours, theirs):
    return [
        name
        for name in ARRAYS
        if not np.array_equal(getattr(ours, name), getattr(theirs, name))
    ]


class _KillOneWorker(EdgeSource):
    """Wrap a source; SIGKILL one shard worker after ``after`` records."""

    def __init__(self, inner, after, victim):
        self.inner = inner
        self.after = after
        self.victim = victim  # () -> Process
        self.name = f"kill-after-{after}:{inner.name}"

    def records(self, start_offset=0):
        for count, record in enumerate(self.inner.records(start_offset)):
            if count == self.after:
                process = self.victim()
                os.kill(process.pid, signal.SIGKILL)
                process.join()  # make the death visible, not racy
            yield record


def _recovery_drill(path, serial_arrays, checkpoint_dir, edges, workers=WORKERS):
    """Kill shard 0 mid-stream, resume, and verify bit-identity.

    Returns a result dict; ``ok`` is True only when the crash surfaced
    as WorkerCrashError *and* the resumed run reproduced the serial
    predictor exactly.
    """
    checkpoint_every = max(edges // (workers * 40), 100)
    holder = {}
    source = _KillOneWorker(
        FileEdgeSource(path),
        after=edges // 2,
        victim=lambda: holder["runner"].processes[0],
    )
    runner = ShardedRunner(
        source,
        workers=workers,
        config=CONFIG,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
    )
    holder["runner"] = runner
    try:
        runner.run()
    except WorkerCrashError as crash:
        crashed_shard = crash.shard
    else:
        return {"ok": False, "detail": "SIGKILL did not surface as WorkerCrashError"}

    recovered = ShardedRunner(
        FileEdgeSource(path),
        workers=workers,
        config=CONFIG,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
    )
    if not recovered.resume():
        return {"ok": False, "detail": "no shard checkpoints found to resume from"}
    started = time.perf_counter()
    stats = recovered.run()
    elapsed = time.perf_counter() - started
    mismatched = _mismatches(recovered.predictor.export_arrays(), serial_arrays)
    return {
        "ok": not mismatched and stats["source_exhausted"],
        "detail": f"arrays differ: {mismatched}" if mismatched else "bit-identical",
        "crashed_shard": crashed_shard,
        "replayed": stats["replayed"],
        "resume_seconds": elapsed,
    }


def _render(edges, serial_seconds, sharded_seconds, speedup, recovery, workers=WORKERS):
    rows = [
        ["serial StreamRunner", serial_seconds, edges / serial_seconds, 1.0],
        [
            f"ShardedRunner workers={workers}",
            sharded_seconds,
            edges / sharded_seconds,
            speedup,
        ],
    ]
    table = format_table(
        ["pipeline", "seconds", "edges/s", "speedup"],
        rows,
        title=(
            f"E16 — parallel ingest, {edges:,} edges "
            f"(scale={SCALE}, host cpus={CORES})"
        ),
        precision=2,
    )
    if SCALE != "full":
        why = "report-only at smoke scale"
    elif CORES < workers:
        why = f"report-only: host has {CORES} cpu(s) for {workers} workers"
    else:
        why = "gating"
    gate = f"bar {SPEEDUP_BAR:.1f}x ({why})"
    recovery_line = (
        f"recovery drill: shard {recovery.get('crashed_shard', '?')} killed, "
        f"replayed={recovery.get('replayed', '?')}, {recovery['detail']}"
    )
    return f"{table}\n{gate}\n{recovery_line}"


# --------------------------------------------------------------------------
# pytest-benchmark entry points (pytest benchmarks/ --benchmark-only)
# --------------------------------------------------------------------------


def test_e16_serial_baseline(benchmark):
    holder = {}

    def run():
        holder["runner"] = StreamRunner(
            FileEdgeSource(_stream_path()), config=CONFIG
        )
        holder["runner"].run()

    benchmark.pedantic(run, rounds=1, iterations=1)
    _RESULTS["serial"] = benchmark.stats.stats.mean
    _STATE["serial_arrays"] = holder["runner"].predictor.export_arrays()


def test_e16_sharded_is_bit_identical(benchmark):
    assert "serial_arrays" in _STATE, "serial baseline must run first"
    holder = {}

    def run():
        holder["runner"] = ShardedRunner(
            FileEdgeSource(_stream_path()), workers=WORKERS, config=CONFIG
        )
        holder["runner"].run()

    benchmark.pedantic(run, rounds=1, iterations=1)
    _RESULTS["sharded"] = benchmark.stats.stats.mean
    mismatched = _mismatches(
        holder["runner"].predictor.export_arrays(), _STATE["serial_arrays"]
    )
    assert not mismatched, f"sharded arrays differ from serial: {mismatched}"


def test_e16_recovery_and_report(benchmark, tmp_path):
    """Runs last: the kill-a-worker drill plus the table/JSON emit.

    (Takes the benchmark fixture so --benchmark-only does not skip it;
    the timed workload is the drill itself.)
    """
    assert {"serial", "sharded"} <= set(_RESULTS), "timing cases must run first"

    recovery = benchmark.pedantic(
        lambda: _recovery_drill(
            _stream_path(), _STATE["serial_arrays"], str(tmp_path / "ck"), EDGES
        ),
        rounds=1,
        iterations=1,
    )
    assert recovery["ok"], recovery

    speedup = _RESULTS["serial"] / _RESULTS["sharded"]
    text = _render(EDGES, _RESULTS["serial"], _RESULTS["sharded"], speedup, recovery)
    emit("e16_parallel_ingest", text)
    emit_json(
        "e16_parallel_ingest",
        {
            "edges": EDGES,
            "workers": WORKERS,
            "host_cpus": CORES,
            "serial_seconds": _RESULTS["serial"],
            "sharded_seconds": _RESULTS["sharded"],
            "speedup": speedup,
            "speedup_bar": SPEEDUP_BAR,
            "recovery": recovery,
        },
    )
    if SCALE == "full" and CORES >= WORKERS:
        assert speedup >= SPEEDUP_BAR, (
            f"{WORKERS} workers gave {speedup:.2f}x, below the {SPEEDUP_BAR}x bar"
        )


# --------------------------------------------------------------------------
# standalone runner (the CI smoke step)
# --------------------------------------------------------------------------


def main(argv=None):
    parser = bench_arg_parser("E16 sharded parallel ingest speedup + recovery drill")
    parser.add_argument(
        "--workers", type=int, default=WORKERS, help="shard worker count (default 4)"
    )
    args = parser.parse_args(argv)

    edges = SMOKE_EDGES if args.smoke else EDGES
    gating = not args.smoke and SCALE == "full" and CORES >= args.workers
    path = _stream_path(edges)

    serial_seconds, serial = _serial(path)
    serial_arrays = serial.predictor.export_arrays()
    sharded_seconds, sharded = _sharded(path, workers=args.workers)
    speedup = serial_seconds / sharded_seconds
    mismatched = _mismatches(sharded.predictor.export_arrays(), serial_arrays)

    with tempfile.TemporaryDirectory(prefix="bench-e16-ck-") as ckpt:
        recovery = _recovery_drill(path, serial_arrays, ckpt, edges, args.workers)

    text = _render(edges, serial_seconds, sharded_seconds, speedup, recovery, args.workers)
    emit("e16_parallel_ingest", text)
    emit_json(
        "e16_parallel_ingest",
        {
            "edges": edges,
            "workers": args.workers,
            "host_cpus": CORES,
            "serial_seconds": serial_seconds,
            "sharded_seconds": sharded_seconds,
            "speedup": speedup,
            "speedup_bar": SPEEDUP_BAR,
            "speedup_gating": gating,
            "bit_identical": not mismatched,
            "recovery": recovery,
        },
        path=args.json or None,
    )

    failed = False
    if mismatched:
        print(f"FAIL: sharded arrays differ from serial: {mismatched}", file=sys.stderr)
        failed = True
    if not recovery["ok"]:
        print(f"FAIL: recovery drill: {recovery['detail']}", file=sys.stderr)
        failed = True
    if gating and speedup < SPEEDUP_BAR:
        print(
            f"FAIL: {args.workers} workers gave {speedup:.2f}x, "
            f"below the {SPEEDUP_BAR}x bar",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
