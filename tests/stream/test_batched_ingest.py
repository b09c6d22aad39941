"""Batched stream ingestion (``batch_size``): bit-identical to scalar.

The serial runner, the sharded runner, and the ``repro.api.ingest``
facade all accept ``batch_size`` and route accepted edges through the
block-ingest kernel.  These tests pin the contract that makes the knob
safe to flip in production: the resulting predictor — and every
checkpoint written along the way — is bit-for-bit the one the scalar
path produces, dirty records, casebook policies, strict aborts, and
crash recovery included.
"""

from __future__ import annotations

import pytest

from repro.api import ingest
from repro.core import MinHashLinkPredictor, SketchConfig
from repro.core.persistence import read_checkpoint
from repro.errors import ConfigurationError, DeadLetterError
from repro.stream import CheckpointManager, IteratorEdgeSource, StreamRunner
from repro.stream.casebook import sketch_fingerprint
from repro.stream.policies import PolicySet

CONFIG = SketchConfig(k=16, seed=9)

DIRTY = [
    (0, 1),
    (1, 2),
    (1, 2),          # duplicate (casebook policies flag it)
    (2, 2),          # self-loop
    (0, 1),          # duplicate
    (-1, 3),         # negative vertex
    "garbage",
    (3, 4),
    (4, 5, 7),       # timestamped
    (5, 6),
    (6, 7),
    (7, 8),
]


def run_stream(records, **kwargs):
    kwargs.setdefault("config", CONFIG)
    runner = StreamRunner(IteratorEdgeSource(records), **kwargs)
    stats = runner.run()
    return runner, stats


class TestSerialBatching:
    @pytest.mark.parametrize("batch_size", [2, 3, 100])
    def test_fingerprint_identical_to_scalar(self, batch_size):
        scalar, scalar_stats = run_stream(DIRTY)
        batched, batched_stats = run_stream(DIRTY, batch_size=batch_size)
        assert sketch_fingerprint(batched.predictor) == sketch_fingerprint(
            scalar.predictor
        )
        assert batched_stats["records_ok"] == scalar_stats["records_ok"]

    def test_with_casebook_policies(self):
        policies = PolicySet.parse("duplicate_edge=normalize")
        scalar, scalar_stats = run_stream(DIRTY, policies=policies)
        batched, batched_stats = run_stream(DIRTY, policies=policies, batch_size=4)
        assert sketch_fingerprint(batched.predictor) == sketch_fingerprint(
            scalar.predictor
        )
        assert (
            batched_stats["duplicate_edges_detected"]
            == scalar_stats["duplicate_edges_detected"]
            == 2
        )

    def test_strict_abort_flushes_pending_edges(self):
        records = [(0, 1), (1, 2), (2, 3), (-1, 9), (4, 5)]
        runner = StreamRunner(
            IteratorEdgeSource(records),
            config=CONFIG,
            policy="strict",
            batch_size=100,
        )
        with pytest.raises(DeadLetterError):
            runner.run()
        # Everything accepted before the poison record must be applied,
        # not stranded in the pending buffer.
        reference = MinHashLinkPredictor(CONFIG)
        for u, v in records[:3]:
            reference.update(u, v)
        assert sketch_fingerprint(runner.predictor) == sketch_fingerprint(reference)

    def test_exhaustion_flushes_partial_batch(self):
        runner, stats = run_stream([(0, 1), (1, 2), (2, 3)], batch_size=64)
        assert stats["records_ok"] == 3
        assert runner.predictor.vertex_count == 4

    def test_batch_size_validation(self):
        with pytest.raises(ConfigurationError):
            run_stream(DIRTY, batch_size=-1)

    def test_checkpoints_land_at_scalar_offsets(self, tmp_path):
        records = [(i, i + 1) for i in range(20)]
        scalar_dir, batched_dir = tmp_path / "scalar", tmp_path / "batched"
        for directory, batch_size in ((scalar_dir, 0), (batched_dir, 7)):
            run_stream(
                records,
                checkpoint_manager=CheckpointManager(directory),
                checkpoint_every=5,
                batch_size=batch_size,
            )
        scalar_gens = sorted(p.name for p in scalar_dir.glob("*.npz"))
        batched_gens = sorted(p.name for p in batched_dir.glob("*.npz"))
        assert scalar_gens == batched_gens
        latest = CheckpointManager(batched_dir).load_latest()
        assert latest.offset == 20

    def test_resume_with_batching_matches_uninterrupted_scalar(self, tmp_path):
        records = [(i % 9, i % 9 + 1 + i % 3) for i in range(40)]
        source_a = IteratorEdgeSource(records)
        runner = StreamRunner(
            source_a,
            config=CONFIG,
            checkpoint_manager=CheckpointManager(tmp_path),
            checkpoint_every=6,
            self_loops="drop",
            batch_size=5,
        )
        runner.run(max_records=17)  # simulated crash mid-stream
        resumed = StreamRunner(
            IteratorEdgeSource(records),
            config=CONFIG,
            checkpoint_manager=CheckpointManager(tmp_path),
            checkpoint_every=6,
            self_loops="drop",
            batch_size=5,
        )
        resumed.resume()
        resumed.run()
        scalar, _ = run_stream(records, self_loops="drop")
        assert sketch_fingerprint(resumed.predictor) == sketch_fingerprint(
            scalar.predictor
        )


class TestFacadeAndSharded:
    def test_api_ingest_batched_serial(self):
        scalar = ingest(DIRTY, config=CONFIG)
        batched = ingest(DIRTY, config=CONFIG, batch_size=8)
        assert sketch_fingerprint(batched.predictor) == sketch_fingerprint(
            scalar.predictor
        )

    def test_api_ingest_batched_sharded(self):
        records = [(i % 13, (i * 7) % 13) for i in range(120) if i % 13 != (i * 7) % 13]
        scalar = ingest(records, config=CONFIG)
        sharded = ingest(records, config=CONFIG, workers=2, batch_size=16)
        assert sketch_fingerprint(sharded.predictor) == sketch_fingerprint(
            scalar.predictor
        )

    @pytest.mark.parametrize("dynamic_mode", [False, True], ids=["append", "dynamic"])
    def test_sharded_batched_checkpoint_resume(self, tmp_path, dynamic_mode):
        records = [(i % 11, (i * 5) % 11) for i in range(90) if i % 11 != (i * 5) % 11]
        config = CONFIG
        if dynamic_mode:
            # Runs of adds broken by runs of two deletes: the worker's
            # spans must split at every op change as well as at every
            # checkpoint boundary.
            config = SketchConfig(k=16, seed=9, dynamic_mode=True)
            churn = []
            for i, (u, v) in enumerate(records):
                churn.append(f"{u} {v} {i}")
                if i % 4 == 3:
                    churn += [f"- {u} {v} {i}.25", f"- {records[i - 1][0]} {records[i - 1][1]} {i}.5"]
            records = churn

        def kill_and_resume(directory, batch_size):
            options = dict(
                config=config,
                workers=2,
                batch_size=batch_size,
                checkpoint_dir=directory,
                checkpoint_every=10,
                keep=100,
            )
            interrupted = ingest(records, max_records=40, **options)
            assert interrupted.records_ok < len(records)
            return ingest(records, resume=True, **options)

        def checkpoint_offsets(directory):
            return {
                path.relative_to(directory).as_posix(): read_checkpoint(path).metadata[
                    "stream_offset"
                ]
                for path in sorted(directory.glob("shard-*/checkpoint-*.npz"))
            }

        resumed = kill_and_resume(tmp_path / "batched", batch_size=8)
        scalar_resumed = kill_and_resume(tmp_path / "scalar", batch_size=0)
        scalar = ingest(records, config=config)
        assert sketch_fingerprint(resumed.predictor) == sketch_fingerprint(
            scalar.predictor
        )
        assert checkpoint_offsets(tmp_path / "batched") == checkpoint_offsets(
            tmp_path / "scalar"
        )
        assert resumed.stats["shard_offsets"] == scalar_resumed.stats["shard_offsets"]
