"""Integration tests for the sharded parallel ingestion pipeline.

The headline contracts:

* a ``workers=N`` run produces a predictor **bit-identical** to serial
  ingestion of the same stream (quarantine and self-loop handling
  included),
* killing a worker mid-run raises
  :class:`~repro.errors.WorkerCrashError`, and a fresh runner resumed
  over the same checkpoint directory completes to the same
  bit-identical predictor,
* a ``max_records`` halt writes no final checkpoints (crash double)
  and resume finishes the stream exactly once.
"""

from __future__ import annotations

import os
import random
import signal

import numpy as np
import pytest

from repro.core import MinHashLinkPredictor, SketchConfig
from repro.errors import ConfigurationError, DeadLetterError, WorkerCrashError
from repro.parallel import ShardedRunner
from repro.parallel.worker import shard_directory
from repro.serve import PackedSketches
from repro.stream import FileEdgeSource, StreamRunner
from repro.stream.checkpoint import CheckpointManager
from repro.stream.sources import EdgeSource

ARRAYS = ("vertex_ids", "values", "witnesses", "update_counts", "degrees")

CONFIG = SketchConfig(k=16, seed=11, degree_mode="exact")


@pytest.fixture(scope="module")
def edge_file(tmp_path_factory):
    """A messy stream: duplicates, self-loops, and malformed lines."""
    path = tmp_path_factory.mktemp("stream") / "edges.txt"
    rng = random.Random(5)
    with open(path, "w") as handle:
        for index in range(4000):
            u, v = rng.randrange(250), rng.randrange(250)
            handle.write(f"{u} {v}\n")
            if index % 500 == 0:
                handle.write(f"{u} {v}\n")  # duplicate arrival
        handle.write("not an edge at all\n")
        handle.write("7 7\n")  # self-loop
        handle.write("-3 4\n")  # negative vertex
    return path


@pytest.fixture(scope="module")
def serial_arrays(edge_file):
    runner = StreamRunner(FileEdgeSource(edge_file), config=CONFIG)
    runner.run()
    return runner.predictor.export_arrays(), runner


def assert_bit_identical(predictor, serial_arrays):
    ours = predictor.export_arrays()
    for name in ARRAYS:
        assert np.array_equal(getattr(ours, name), getattr(serial_arrays, name)), name


class TestBitIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sharded_equals_serial(self, edge_file, serial_arrays, workers):
        arrays, serial = serial_arrays
        runner = ShardedRunner(FileEdgeSource(edge_file), workers=workers, config=CONFIG)
        stats = runner.run()
        assert_bit_identical(runner.predictor, arrays)
        assert runner.predictor.nominal_bytes() == serial.predictor.nominal_bytes()
        assert stats["records_ok"] == serial.records_ok
        assert stats["dead_lettered"] == serial.stats()["dead_lettered"]
        assert stats["source_exhausted"] is True
        assert sum(stats["shard_records"]) == stats["records_ok"]

    def test_quarantine_counters_match_serial(self, edge_file, serial_arrays):
        _, serial = serial_arrays
        runner = ShardedRunner(FileEdgeSource(edge_file), workers=3, config=CONFIG)
        runner.run()
        assert runner.dead_letter_reasons() == serial.dead_letter_reasons()

    def test_shard_label_on_metrics(self, edge_file):
        runner = ShardedRunner(FileEdgeSource(edge_file), workers=2, config=CONFIG)
        runner.run()
        counter = runner.metrics.get("ingest_records_total")
        per_shard = {
            labels["shard"]: series.value
            for labels, series in counter.series()
            if labels["outcome"] == "ok"
        }
        assert set(per_shard) == {"0", "1"}
        assert sum(per_shard.values()) == runner.records_ok
        assert runner.metrics.get("shard_merge_seconds").count == 1
        assert runner.metrics.get("ingest_workers").value == 2


class TestValidation:
    def test_countmin_degrees_rejected_eagerly(self, edge_file):
        with pytest.raises(ConfigurationError, match="exact"):
            ShardedRunner(
                FileEdgeSource(edge_file),
                workers=2,
                config=SketchConfig(k=8, degree_mode="countmin"),
            )

    def test_checkpoint_every_needs_directory(self, edge_file):
        with pytest.raises(ConfigurationError):
            ShardedRunner(
                FileEdgeSource(edge_file), workers=2, config=CONFIG, checkpoint_every=10
            )

    def test_workers_must_be_positive(self, edge_file):
        with pytest.raises(ConfigurationError):
            ShardedRunner(FileEdgeSource(edge_file), workers=0, config=CONFIG)

    def test_run_is_single_shot(self, edge_file):
        runner = ShardedRunner(FileEdgeSource(edge_file), workers=2, config=CONFIG)
        runner.run()
        with pytest.raises(ConfigurationError):
            runner.run()

    def test_strict_policy_raises_on_first_violation(self, edge_file):
        runner = ShardedRunner(
            FileEdgeSource(edge_file), workers=2, config=CONFIG, policy="strict"
        )
        with pytest.raises(DeadLetterError):
            runner.run()


class TestHaltAndResume:
    def test_max_records_halt_writes_no_final_checkpoint_then_resume(
        self, edge_file, serial_arrays, tmp_path
    ):
        arrays, _ = serial_arrays
        ckpt = tmp_path / "ck"
        first = ShardedRunner(
            FileEdgeSource(edge_file),
            workers=3,
            config=CONFIG,
            checkpoint_dir=str(ckpt),
            checkpoint_every=100,
        )
        stats = first.run(max_records=2000)
        assert stats["source_exhausted"] is False
        # Halt is crash-shaped: every shard's checkpointed offset trails
        # what it actually applied (no final checkpoint flushed).
        assert first.offset == 2000

        second = ShardedRunner(
            FileEdgeSource(edge_file),
            workers=3,
            config=CONFIG,
            checkpoint_dir=str(ckpt),
            checkpoint_every=100,
        )
        assert second.resume() is True
        stats = second.run()
        assert stats["source_exhausted"] is True
        assert stats["replayed"] > 0  # the uncheckpointed suffix re-routed
        assert_bit_identical(second.predictor, arrays)

    def test_resume_restores_the_guard_below_the_lowest_shard_offset(self, tmp_path):
        # 50 distinct edges, then repeats of the first two: a resume
        # that starts the coordinator's guard empty re-accepts them.
        rng = random.Random(8)
        pairs = set()
        while len(pairs) < 50:
            u, v = rng.sample(range(40), 2)
            pairs.add((min(u, v), max(u, v)))
        lines = [f"{u} {v}" for u, v in sorted(pairs, key=lambda pair: rng.random())]
        lines[44:44] = [lines[0]]
        lines.append(lines[1])
        path = tmp_path / "edges.txt"
        path.write_text("\n".join(lines) + "\n")
        assert len(lines) == 52
        serial = StreamRunner(FileEdgeSource(path), config=CONFIG, policies="normalize")
        assert serial.run()["duplicate_edges_detected"] == 2

        def sharded(**options):
            return ShardedRunner(
                FileEdgeSource(path),
                workers=2,
                config=CONFIG,
                policies="normalize",
                checkpoint_dir=str(tmp_path / "ck"),
                checkpoint_every=5,
                **options,
            )

        sharded().run(max_records=38)
        committed = [
            CheckpointManager(shard_directory(tmp_path / "ck", shard)).load_latest().offset
            for shard in range(2)
        ]
        assert 2 <= min(committed) < 38  # the repeated edges lie below the resume point
        resumed = sharded()
        assert resumed.resume() is True
        stats = resumed.run()
        assert stats["duplicate_edges_detected"] == 2
        assert stats["records_in"] == 52 - min(committed)  # the replay counts nothing
        assert (
            PackedSketches.from_predictor(resumed.predictor).fingerprint()
            == PackedSketches.from_predictor(serial.predictor).fingerprint()
        )

    def test_resume_with_no_checkpoints_returns_false(self, edge_file, tmp_path):
        runner = ShardedRunner(
            FileEdgeSource(edge_file),
            workers=2,
            config=CONFIG,
            checkpoint_dir=str(tmp_path / "empty"),
        )
        assert runner.resume() is False

    def test_resume_needs_checkpoint_dir(self, edge_file):
        runner = ShardedRunner(FileEdgeSource(edge_file), workers=2, config=CONFIG)
        with pytest.raises(ConfigurationError):
            runner.resume()


class _KillOneWorker(EdgeSource):
    """Wrap a source; SIGKILL one shard worker after ``after`` records.

    The kill happens inside the coordinator's routing loop (sources are
    consumed coordinator-side), which is exactly when a real worker
    OOM-kill would land.
    """

    def __init__(self, inner, after: int, victim) -> None:
        self.inner = inner
        self.after = after
        self.victim = victim  # () -> Process
        self.name = f"kill-after-{after}:{inner.name}"

    def records(self, start_offset: int = 0):
        for count, record in enumerate(self.inner.records(start_offset)):
            if count == self.after:
                process = self.victim()
                os.kill(process.pid, signal.SIGKILL)
                process.join()  # make the death visible, not racy
            yield record


class TestWorkerCrashRecovery:
    def test_killed_worker_raises_and_resume_completes_bit_identical(
        self, edge_file, serial_arrays, tmp_path
    ):
        arrays, _ = serial_arrays
        ckpt = tmp_path / "ck"
        holder = {}
        source = _KillOneWorker(
            FileEdgeSource(edge_file), after=2500, victim=lambda: holder["runner"].processes[0]
        )
        runner = ShardedRunner(
            source,
            workers=3,
            config=CONFIG,
            checkpoint_dir=str(ckpt),
            checkpoint_every=50,
            chunk_records=64,
            queue_depth=4,
        )
        holder["runner"] = runner
        with pytest.raises(WorkerCrashError) as crashed:
            runner.run()
        assert crashed.value.shard == 0
        # No zombie workers survive the abort.
        for process in runner.processes:
            process.join(timeout=5.0)
            assert not process.is_alive()
        # Shard 0 checkpointed before dying; its directory is usable.
        assert list(shard_directory(ckpt, 0).glob("checkpoint-*.npz"))

        recovered = ShardedRunner(
            FileEdgeSource(edge_file),
            workers=3,
            config=CONFIG,
            checkpoint_dir=str(ckpt),
            checkpoint_every=50,
        )
        assert recovered.resume() is True
        stats = recovered.run()
        assert stats["source_exhausted"] is True
        assert_bit_identical(recovered.predictor, arrays)

    def test_worker_exception_surfaces_with_traceback(self, edge_file, tmp_path):
        # A plain file squatting on shard 0's checkpoint directory makes
        # that worker's CheckpointManager constructor raise; the
        # coordinator must forward the remote traceback.
        ckpt = tmp_path / "ck"
        ckpt.mkdir()
        shard_directory(ckpt, 0).write_text("not a directory")
        runner = ShardedRunner(
            FileEdgeSource(edge_file),
            workers=2,
            config=CONFIG,
            checkpoint_dir=str(ckpt),
            checkpoint_every=10,
        )
        with pytest.raises(WorkerCrashError) as crashed:
            runner.run()
        assert crashed.value.shard == 0
        assert crashed.value.traceback  # remote format_exc forwarded

    def test_protocol_misuse_forwards_worker_crash_error(self):
        # RL002 sweep: the worker's unknown-message guard raises
        # WorkerCrashError (not bare RuntimeError); the in-worker
        # except still forwards it to the coordinator as a traceback.
        import multiprocessing
        import queue

        from repro.parallel import shard_worker_main

        task_queue: "queue.Queue" = queue.Queue()
        result_queue: "queue.Queue" = queue.Queue()
        task_queue.put(("bogus-kind",))
        receiver, sender = multiprocessing.Pipe(duplex=False)
        shard_worker_main(
            shard=3,
            task_queue=task_queue,
            result_queue=result_queue,
            state_pipe=sender,
            config=CONFIG,
            checkpoint_dir="",
            checkpoint_every=0,
            keep=1,
            resume=False,
        )
        assert result_queue.get(timeout=1)[0] == "ready"
        kind, shard, forwarded = result_queue.get(timeout=1)
        assert (kind, shard) == ("error", 3)
        assert "WorkerCrashError" in forwarded
        assert "unknown worker message" in forwarded
        assert sender.closed  # the worker always closes its state pipe
        receiver.close()
