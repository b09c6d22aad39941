"""Failure-injection tests: corrupted inputs, hostile values, truncated
state.  A streaming system runs unattended; every failure here must be
a *loud, typed* error (or a documented graceful behaviour), never a
silent wrong answer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MinHashLinkPredictor, SketchConfig
from repro.core.persistence import load_predictor, save_predictor
from repro.errors import (
    CheckpointCorruptError,
    ConfigurationError,
    ReproError,
    SketchStateError,
    StreamFormatError,
)
from repro.graph import from_pairs, read_edge_list
from tests.conftest import TOY_EDGES


class TestCorruptedCheckpoints:
    def test_truncated_file_raises(self, tmp_path):
        predictor = MinHashLinkPredictor(SketchConfig(k=16, seed=1))
        predictor.process(from_pairs(TOY_EDGES))
        path = tmp_path / "state.npz"
        save_predictor(predictor, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointCorruptError):
            load_predictor(path)

    def test_wrong_file_type_raises(self, tmp_path):
        path = tmp_path / "state.npz"
        path.write_text("this is not a checkpoint")
        with pytest.raises(CheckpointCorruptError):
            load_predictor(path)

    def test_missing_field_raises(self, tmp_path):
        predictor = MinHashLinkPredictor(SketchConfig(k=8, seed=2))
        predictor.process(from_pairs(TOY_EDGES))
        path = tmp_path / "state.npz"
        save_predictor(predictor, path)
        with np.load(path) as archive:
            fields = {name: archive[name] for name in archive.files}
        del fields["values"]
        np.savez_compressed(path, **fields)
        # Deleting a payload field invalidates the embedded checksum, so
        # the tamper surfaces as typed corruption, never a deep KeyError.
        with pytest.raises(SketchStateError):
            load_predictor(path)


class TestHostileStreamFiles:
    def test_binary_garbage_mid_file(self, tmp_path):
        path = tmp_path / "garbage.txt"
        path.write_bytes(b"0 1\n\xff\xfe garbage \x00\n2 3\n")
        with pytest.raises(StreamFormatError, match="line 2"):
            read_edge_list(path)

    def test_huge_field_count(self, tmp_path):
        path = tmp_path / "wide.txt"
        path.write_text("0 1 2 3 4 5 6 7 8 9\n")
        with pytest.raises(StreamFormatError):
            read_edge_list(path)

    def test_float_vertex_ids_rejected(self, tmp_path):
        path = tmp_path / "floats.txt"
        path.write_text("1.5 2.5\n")
        with pytest.raises(StreamFormatError):
            read_edge_list(path)

    def test_empty_file_is_empty_stream(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert read_edge_list(path) == []

    def test_comment_only_file(self, tmp_path):
        path = tmp_path / "comments.txt"
        path.write_text("# nothing\n# here\n")
        assert read_edge_list(path) == []


class TestHostileUpdates:
    def test_negative_vertex_rejected_everywhere(self):
        predictor = MinHashLinkPredictor(SketchConfig(k=8, seed=3))
        with pytest.raises(ConfigurationError):
            predictor.update(-1, 2)
        with pytest.raises(ConfigurationError):
            predictor.update(1, -2)

    def test_huge_vertex_ids_work(self):
        # Ids up to 2**62 survive the int64 witness storage; queries
        # behave normally.
        predictor = MinHashLinkPredictor(SketchConfig(k=32, seed=4))
        big = 2**62
        predictor.update(big, big - 1)
        predictor.update(big, big - 2)
        predictor.update(big - 3, big - 1)
        predictor.update(big - 3, big - 2)
        assert predictor.score(big, big - 3, "common_neighbors") >= 0.0
        assert predictor.degree(big) == 2

    def test_errors_are_catchable_as_repro_error(self):
        predictor = MinHashLinkPredictor(SketchConfig(k=8, seed=5))
        with pytest.raises(ReproError):
            predictor.update(3, 3)
        with pytest.raises(ReproError):
            predictor.score(0, 1, "nonsense_measure")


class TestKillAndResume:
    """SIGKILL-equivalent scenarios for the checkpointed runtime: a
    crash at the worst possible moment must never lose the last good
    checkpoint, and the resumed run must equal a sequential reference.
    """

    @staticmethod
    def _stream(n=400, seed=13):
        from repro.graph.generators import erdos_renyi

        return [(e.u, e.v) for e in erdos_renyi(60, n, seed=seed)]

    @staticmethod
    def _reference_scores(pairs_stream, k=32, seed=5):
        predictor = MinHashLinkPredictor(SketchConfig(k=k, seed=seed))
        for u, v in pairs_stream:
            predictor.update(u, v)
        return predictor

    def test_torn_temp_file_mid_checkpoint_is_harmless(self, tmp_path):
        """Simulate a kill mid-write: a truncated temp file sits beside
        the good generations.  Resume must ignore it, use the newest
        durable generation, and the next save must sweep the stray."""
        from repro.stream import CheckpointManager, IteratorEdgeSource, StreamRunner

        stream = self._stream()
        manager = CheckpointManager(tmp_path, keep=3)
        runner = StreamRunner(
            IteratorEdgeSource(stream),
            config=SketchConfig(k=32, seed=5),
            checkpoint_manager=manager,
            checkpoint_every=100,
        )
        runner.run(max_records=250)  # generations 1 and 2 written

        # The torn write: a half-copied temp file from a killed writer.
        good = manager.directory / "checkpoint-2.npz"
        torn = manager.directory / f".checkpoint-3.npz.tmp-{99999}"
        torn.write_bytes(good.read_bytes()[:100])

        resumed = StreamRunner(
            IteratorEdgeSource(stream),
            checkpoint_manager=manager,
            checkpoint_every=100,
        )
        assert resumed.resume()
        assert resumed.resumed_from == 2
        assert resumed.offset == 200
        resumed.run()

        reference = self._reference_scores(stream)
        for vertex in reference.export_arrays().vertex_ids.tolist():
            assert np.array_equal(
                reference.sketch(vertex).values, resumed.predictor.sketch(vertex).values
            )
        assert not torn.exists()  # swept by the post-resume checkpoints

    def test_resume_falls_back_to_generation_n_minus_1(self, tmp_path):
        """Truncate the newest finished generation: load_latest must
        fall back to generation N-1 and the finished run must still
        equal the sequential reference."""
        from repro.stream import CheckpointManager, IteratorEdgeSource, StreamRunner

        stream = self._stream()
        manager = CheckpointManager(tmp_path, keep=5)
        runner = StreamRunner(
            IteratorEdgeSource(stream),
            config=SketchConfig(k=32, seed=5),
            checkpoint_manager=manager,
            checkpoint_every=100,
        )
        runner.run(max_records=310)  # generations 1..3

        newest = manager.directory / "checkpoint-3.npz"
        raw = newest.read_bytes()
        newest.write_bytes(raw[: len(raw) // 3])

        resumed = StreamRunner(
            IteratorEdgeSource(stream),
            checkpoint_manager=manager,
        )
        assert resumed.resume()
        assert resumed.resumed_from == 2
        assert resumed.offset == 200
        resumed.run()

        reference = self._reference_scores(stream)
        assert resumed.predictor.vertex_count == reference.vertex_count
        for vertex in reference.export_arrays().vertex_ids.tolist():
            sketch = reference.sketch(vertex)
            restored = resumed.predictor.sketch(vertex)
            assert np.array_equal(sketch.values, restored.values)
            assert np.array_equal(sketch.witnesses, restored.witnesses)
            assert resumed.predictor.degree(vertex) == reference.degree(vertex)

    def test_all_generations_corrupt_raises(self, tmp_path):
        from repro.stream import CheckpointManager, IteratorEdgeSource, StreamRunner

        stream = self._stream(n=150)
        manager = CheckpointManager(tmp_path, keep=4)
        runner = StreamRunner(
            IteratorEdgeSource(stream),
            config=SketchConfig(k=16, seed=5),
            checkpoint_manager=manager,
            checkpoint_every=50,
        )
        runner.run()
        for path in manager.directory.glob("checkpoint-*.npz"):
            path.write_bytes(path.read_bytes()[:64])
        fresh = StreamRunner(IteratorEdgeSource(stream), checkpoint_manager=manager)
        with pytest.raises(CheckpointCorruptError):
            fresh.resume()

    @pytest.mark.parametrize("kill_at", [1, 99, 100, 101, 399])
    def test_kill_at_any_point_scores_equal_reference(self, tmp_path, kill_at):
        """The acceptance property: kill after any number of consumed
        records, resume from the latest checkpoint, and final scores are
        bit-identical to the uninterrupted run."""
        from repro.stream import CheckpointManager, IteratorEdgeSource, StreamRunner

        stream = self._stream()
        manager = CheckpointManager(tmp_path / f"kill{kill_at}", keep=3)
        victim = StreamRunner(
            IteratorEdgeSource(stream),
            config=SketchConfig(k=32, seed=5),
            checkpoint_manager=manager,
            checkpoint_every=100,
        )
        victim.run(max_records=kill_at)  # stops without a final checkpoint

        survivor = StreamRunner(
            IteratorEdgeSource(stream),
            config=SketchConfig(k=32, seed=5),
            checkpoint_manager=manager,
            checkpoint_every=100,
        )
        survivor.resume()  # False (fresh start) below the first cadence
        survivor.run()

        reference = self._reference_scores(stream)
        for u, v in ((0, 1), (2, 5), (10, 20), (30, 40)):
            for measure in ("jaccard", "common_neighbors", "adamic_adar"):
                assert survivor.predictor.score(u, v, measure) == reference.score(
                    u, v, measure
                )


class TestQueryUnderWeirdStates:
    def test_query_before_any_update(self):
        predictor = MinHashLinkPredictor(SketchConfig(k=8, seed=6))
        assert predictor.score(1, 2, "adamic_adar") == 0.0
        assert predictor.nominal_bytes() == 0
        assert predictor.bytes_per_vertex() == 0.0

    def test_query_pair_with_self(self):
        # Self-pairs are degenerate but must not crash: J(u,u)=1 by
        # sketch identity; CN clamps to the degree.
        predictor = MinHashLinkPredictor(SketchConfig(k=16, seed=7))
        predictor.process(from_pairs(TOY_EDGES))
        assert predictor.score(0, 0, "jaccard") == 1.0
        assert predictor.score(0, 0, "common_neighbors") <= predictor.degree(0)
