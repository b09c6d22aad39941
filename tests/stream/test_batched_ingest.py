"""Ingest folds every accepted chunk through the block kernel.

The serial runner, the sharded runner and the ``repro.api.ingest``
facade hand each admitted chunk to ``update_block``/``delete_block`` at
once, split only where adds turn to deletes.  These tests pin that the
result — and every checkpoint written along the way — is bit for bit
what the per-record ``update``/``delete`` loop of
:mod:`tests.stream.reference` builds from the same records: dirty
records, casebook policies, strict aborts, crash recovery, and a
predictor with no block kernel of its own included.
"""

from __future__ import annotations

import pytest

from repro.api import ingest, serve
from repro.core import (
    DynamicMinHashPredictor,
    MinHashLinkPredictor,
    SketchConfig,
    WindowedMinHashPredictor,
)
from repro.core.persistence import read_checkpoint
from repro.errors import ConfigurationError, DeadLetterError
from repro.parallel import owner_of
from repro.stream import CheckpointManager, IteratorEdgeSource, StreamRunner
from repro.stream.casebook import sketch_fingerprint
from repro.stream.policies import PolicySet
from tests.stream.reference import accepted_records, fold_accepted

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


def shard_checkpoint_offsets(accepted, shard, workers, seed, every) -> list:
    """The offsets one shard's checkpoints hold, in order: one after
    every ``every``-th accepted record whose ``u`` the shard owns, and
    a final one after its last record with an arrival it owns."""
    owners = [
        (offset + 1, owner_of(typed.u, workers, seed), owner_of(typed.v, workers, seed))
        for offset, typed in accepted
    ]
    counted = [end for end, owner_u, _ in owners if owner_u == shard]
    last = max(end for end, owner_u, owner_v in owners if shard in (owner_u, owner_v))
    marks = counted[every - 1 :: every]
    return marks + ([last] if not marks or last > marks[-1] else [])


def run_stream(records, **kwargs):
    kwargs.setdefault("config", CONFIG)
    runner = StreamRunner(IteratorEdgeSource(records), **kwargs)
    stats = runner.run()
    return runner, stats


def reference(records, config=CONFIG, **options):
    """The fingerprint of the per-record loop over the accepted records."""
    predictor = (
        DynamicMinHashPredictor(config) if config.dynamic_mode else MinHashLinkPredictor(config)
    )
    return sketch_fingerprint(fold_accepted(records, predictor, **options))


class TestSerialBatching:
    @pytest.mark.parametrize("leg", [2, 3, 100])
    def test_fingerprint_identical_to_scalar(self, leg):
        # run() in legs of `leg` records: blocks of one record (the
        # scalar update) and of several (update_block) alike.
        runner = StreamRunner(IteratorEdgeSource(DIRTY), config=CONFIG)
        while not runner.run(max_records=leg)["source_exhausted"]:
            pass
        assert sketch_fingerprint(runner.predictor) == reference(DIRTY)
        assert runner.records_ok == len(accepted_records(DIRTY)[0]) == 9

    def test_with_casebook_policies(self):
        policies = PolicySet.parse("duplicate_edge=normalize")
        runner, stats = run_stream(DIRTY, policies=policies)
        assert sketch_fingerprint(runner.predictor) == reference(DIRTY, policies=policies)
        assert stats["duplicate_edges_detected"] == 2

    def test_strict_abort_flushes_pending_edges(self):
        records = [(0, 1), (1, 2), (2, 3), (-1, 9), (4, 5)]
        runner = StreamRunner(IteratorEdgeSource(records), config=CONFIG, policy="strict")
        with pytest.raises(DeadLetterError):
            runner.run()
        # Everything accepted before the poison record is applied, and
        # the committed offset stops at it.
        reference_predictor = MinHashLinkPredictor(CONFIG)
        for u, v in records[:3]:
            reference_predictor.update(u, v)
        assert sketch_fingerprint(runner.predictor) == sketch_fingerprint(reference_predictor)
        assert sketch_fingerprint(runner.predictor) == reference(records, policy="strict")
        assert runner.offset == 3

    def test_exhaustion_flushes_partial_batch(self):
        records = [(0, 1), (1, 2), (2, 3)]
        runner, stats = run_stream(records)
        assert stats["records_ok"] == 3
        assert stats["source_exhausted"] is True
        assert runner.predictor.vertex_count == 4
        assert sketch_fingerprint(runner.predictor) == reference(records)

    def test_batch_size_validation(self):
        # The facade keeps the deprecated knob: checked, then ignored.
        with pytest.raises(ConfigurationError):
            ingest(DIRTY, config=CONFIG, batch_size=-1)
        with pytest.raises(ConfigurationError):
            serve(source=DIRTY, config=CONFIG, batch_size=-1)

    def test_checkpoints_land_at_scalar_offsets(self, tmp_path):
        records = [(i, i + 1) for i in range(20)]
        manager = CheckpointManager(tmp_path, keep=100)
        run_stream(records, checkpoint_manager=manager, checkpoint_every=5)
        snapshots = []
        for generation in sorted(manager.generations()):
            verified = read_checkpoint(manager.directory / f"checkpoint-{generation}.npz")
            snapshots.append(
                (verified.metadata["stream_offset"], sketch_fingerprint(verified.to_predictor()))
            )
        assert snapshots == [(offset, reference(records[:offset])) for offset in (5, 10, 15, 20)]

    def test_resume_with_batching_matches_uninterrupted_scalar(self, tmp_path):
        records = [(i % 9, i % 9 + 1 + i % 3) for i in range(40)]

        def runner():
            return StreamRunner(
                IteratorEdgeSource(records),
                config=CONFIG,
                checkpoint_manager=CheckpointManager(tmp_path),
                checkpoint_every=6,
                self_loops="drop",
            )

        runner().run(max_records=17)  # simulated crash mid-stream
        resumed = runner()
        assert resumed.resume()
        assert resumed.offset == 12
        resumed.run()
        assert sketch_fingerprint(resumed.predictor) == reference(records, self_loops="drop")

    def test_predictor_without_a_block_kernel(self):
        # A windowed predictor takes the same path through the default
        # LinkPredictor.update_block, in multi-record chunks that cross
        # its pane boundaries.
        config = SketchConfig(k=16, seed=3)
        records = [(i % 23, (i * 7 + 1) % 23) for i in range(200) if i % 23 != (i * 7 + 1) % 23]

        def windowed():
            return WindowedMinHashPredictor(config, pane_edges=17, panes=3)

        runner = StreamRunner(IteratorEdgeSource(records), predictor=windowed())
        while not runner.run(max_records=40)["source_exhausted"]:
            pass
        expected = windowed()
        for u, v in records:
            expected.update(u, v)
        ours, theirs = runner.predictor, expected
        assert ours.window_edges == theirs.window_edges == 17 * 2 + len(records) % 17
        assert [sketch_fingerprint(pane) for pane in ours._stores] == [
            sketch_fingerprint(pane) for pane in theirs._stores
        ]
        assert ours.vertex_count == theirs.vertex_count


class TestFacadeAndSharded:
    def test_api_ingest_batched_serial(self):
        assert sketch_fingerprint(ingest(DIRTY, config=CONFIG).predictor) == reference(DIRTY)

    def test_api_ingest_ignores_the_deprecated_batch_size(self):
        plain = ingest(DIRTY, config=CONFIG)
        legacy = ingest(DIRTY, config=CONFIG, batch_size=4096)
        assert sketch_fingerprint(legacy.predictor) == sketch_fingerprint(plain.predictor)
        assert legacy.stats["records_ok"] == plain.stats["records_ok"]

    def test_api_ingest_batched_sharded(self):
        records = [(i % 13, (i * 7) % 13) for i in range(120) if i % 13 != (i * 7) % 13]
        sharded = ingest(records, config=CONFIG, workers=2)
        assert sketch_fingerprint(sharded.predictor) == reference(records)

    @pytest.mark.parametrize("dynamic_mode", [False, True], ids=["append", "dynamic"])
    def test_sharded_batched_checkpoint_resume(self, tmp_path, dynamic_mode):
        records = [(i % 11, (i * 5) % 11) for i in range(90) if i % 11 != (i * 5) % 11]
        config = CONFIG
        if dynamic_mode:
            # Runs of adds broken by runs of two deletes: each routed
            # block must split at every op change as well as at every
            # checkpoint boundary.
            config = SketchConfig(k=16, seed=9, dynamic_mode=True)
            churn = []
            for i, (u, v) in enumerate(records):
                churn.append(f"{u} {v} {i}")
                if i % 4 == 3:
                    churn += [f"- {u} {v} {i}.25", f"- {records[i - 1][0]} {records[i - 1][1]} {i}.5"]
            records = churn
        options = dict(
            config=config, workers=2, checkpoint_dir=tmp_path, checkpoint_every=10, keep=100
        )
        interrupted = ingest(records, max_records=40, **options)
        assert interrupted.records_ok < len(records)
        resumed = ingest(records, resume=True, **options)
        assert sketch_fingerprint(resumed.predictor) == reference(records, config=config)

        # Each shard checkpoints after every 10th record whose u it
        # owns, and once more at its last arrival, across the kill.
        accepted, _ = accepted_records(records, dynamic=dynamic_mode)
        expected, ends = {}, []
        for shard in (0, 1):
            marks = shard_checkpoint_offsets(accepted, shard, 2, config.seed, 10)
            for generation, offset in enumerate(marks, start=1):
                expected[f"shard-{shard:02d}/checkpoint-{generation}.npz"] = offset
            ends.append(marks[-1])
        observed = {
            path.relative_to(tmp_path).as_posix(): read_checkpoint(path).metadata["stream_offset"]
            for path in tmp_path.glob("shard-*/checkpoint-*.npz")
        }
        assert observed == expected
        assert resumed.stats["shard_offsets"] == ends
