"""CheckpointManager: rotation, atomicity, corruption fallback."""

from __future__ import annotations

import pytest

from repro.core import MinHashLinkPredictor, SketchConfig
from repro.errors import CheckpointCorruptError, ConfigurationError
from repro.graph import from_pairs
from repro.stream import CheckpointManager
from tests.conftest import TOY_EDGES


def make_predictor(edges=TOY_EDGES, k=16, seed=3):
    predictor = MinHashLinkPredictor(SketchConfig(k=k, seed=seed))
    predictor.process(from_pairs(edges))
    return predictor


class TestGenerations:
    def test_generations_increase_and_rotate(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        predictor = make_predictor()
        for offset in (10, 20, 30, 40):
            manager.save(predictor, offset)
        assert manager.generations() == [4, 3]
        assert not (tmp_path / "checkpoint-1.npz").exists()
        assert not (tmp_path / "checkpoint-2.npz").exists()

    def test_load_latest_returns_newest(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=3)
        predictor = make_predictor()
        manager.save(predictor, 100)
        manager.save(predictor, 200)
        checkpoint = manager.load_latest()
        assert checkpoint is not None
        assert checkpoint.generation == 2
        assert checkpoint.offset == 200
        assert checkpoint.state.vertex_count == predictor.vertex_count

    def test_empty_directory_loads_none(self, tmp_path):
        assert CheckpointManager(tmp_path).load_latest() is None
        assert CheckpointManager(tmp_path).latest_generation() == 0

    def test_generation_numbering_survives_rotation(self, tmp_path):
        """After rotation deletes generation 1, the next save must not
        reuse a deleted number (resume identity depends on it)."""
        manager = CheckpointManager(tmp_path, keep=1)
        predictor = make_predictor()
        manager.save(predictor, 1)
        manager.save(predictor, 2)
        path = manager.save(predictor, 3)
        assert path.name == "checkpoint-3.npz"

    def test_two_basenames_coexist(self, tmp_path):
        drill = CheckpointManager(tmp_path, basename="drill")
        prod = CheckpointManager(tmp_path, basename="prod")
        predictor = make_predictor()
        drill.save(predictor, 7)
        prod.save(predictor, 9)
        assert drill.load_latest().offset == 7
        assert prod.load_latest().offset == 9

    def test_invalid_parameters_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CheckpointManager(tmp_path, keep=0)
        with pytest.raises(ConfigurationError):
            CheckpointManager(tmp_path, basename="bad/name")


class TestCorruptionFallback:
    def test_corrupt_newest_falls_back_one_generation(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=3)
        predictor = make_predictor()
        manager.save(predictor, 100)
        manager.save(predictor, 200)
        newest = tmp_path / "checkpoint-2.npz"
        newest.write_bytes(newest.read_bytes()[:50])
        checkpoint = manager.load_latest()
        assert checkpoint.generation == 1
        assert checkpoint.offset == 100

    def test_all_corrupt_raises_corrupt_error(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=3)
        predictor = make_predictor()
        manager.save(predictor, 1)
        manager.save(predictor, 2)
        for path in tmp_path.glob("checkpoint-*.npz"):
            path.write_bytes(b"\x00" * 40)
        with pytest.raises(CheckpointCorruptError):
            manager.load_latest()

    @pytest.mark.parametrize("cut", [1, 37, 200, -10])
    def test_truncation_at_any_byte_offset_rejected(self, tmp_path, cut):
        manager = CheckpointManager(tmp_path, keep=1)
        manager.save(make_predictor(), 5)
        path = tmp_path / "checkpoint-1.npz"
        raw = path.read_bytes()
        path.write_bytes(raw[:cut])
        with pytest.raises(CheckpointCorruptError):
            manager.load_latest()

    def test_stray_temp_files_ignored_and_swept(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        predictor = make_predictor()
        manager.save(predictor, 50)
        stray = tmp_path / ".checkpoint-9.npz.tmp-123"
        stray.write_bytes(b"torn write")
        assert manager.load_latest().generation == 1  # stray invisible
        manager.save(predictor, 60)
        assert not stray.exists()
