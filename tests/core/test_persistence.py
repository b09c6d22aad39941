"""Tests for predictor checkpointing."""

from __future__ import annotations

import hashlib
import tracemalloc
import zipfile

import numpy as np
import pytest

from repro.core import MinHashLinkPredictor, SketchConfig
from repro.core.predictor import ROW_CHUNK
from repro.core.persistence import (
    FORMAT_VERSION,
    load_predictor,
    read_checkpoint,
    save_predictor,
)
from repro.errors import ConfigurationError, SketchStateError
from repro.graph import from_pairs
from repro.graph.generators import erdos_renyi
from tests.conftest import TOY_EDGES


def checkpoint_path(tmp_path):
    return tmp_path / "predictor.npz"


#: The two archive writers a checkpoint may come from: ``save_predictor``
#: stores its members; earlier releases deflated the same fields.
WRITERS = {"stored": np.savez, "deflated": np.savez_compressed}


def read_fields(path):
    with np.load(path) as archive:
        return {name: archive[name] for name in archive.files}


class TestRoundTrip:
    def test_queries_identical_after_restore(self, tmp_path):
        original = MinHashLinkPredictor(SketchConfig(k=64, seed=3))
        original.process(erdos_renyi(100, 400, seed=1))
        path = checkpoint_path(tmp_path)
        saved = save_predictor(original, path)
        assert saved == original.vertex_count
        restored = load_predictor(path)
        for u in range(0, 20):
            for v in range(20, 40):
                for measure in ("jaccard", "common_neighbors", "adamic_adar"):
                    assert restored.score(u, v, measure) == original.score(
                        u, v, measure
                    )

    def test_updates_continue_identically(self, tmp_path):
        stream = erdos_renyi(80, 300, seed=2)
        half = len(stream) // 2
        original = MinHashLinkPredictor(SketchConfig(k=32, seed=4))
        original.process(stream[:half])
        path = checkpoint_path(tmp_path)
        save_predictor(original, path)
        restored = load_predictor(path)
        for predictor in (original, restored):
            predictor.process(stream[half:])
        for u, v in ((0, 1), (2, 3), (10, 20)):
            assert restored.score(u, v, "adamic_adar") == original.score(
                u, v, "adamic_adar"
            )
        assert restored.degree(0) == original.degree(0)

    def test_sketch_arrays_bit_identical(self, tmp_path):
        original = MinHashLinkPredictor(SketchConfig(k=16, seed=5))
        original.process(from_pairs(TOY_EDGES))
        path = checkpoint_path(tmp_path)
        save_predictor(original, path)
        restored = load_predictor(path)
        for vertex in range(5):
            assert np.array_equal(
                restored.sketch(vertex).values,
                original.sketch(vertex).values,
            )
            assert np.array_equal(
                restored.sketch(vertex).witnesses,
                original.sketch(vertex).witnesses,
            )

    def test_witnessless_config_round_trips(self, tmp_path):
        original = MinHashLinkPredictor(SketchConfig(k=16, seed=6, track_witnesses=False))
        original.process(from_pairs(TOY_EDGES))
        path = checkpoint_path(tmp_path)
        save_predictor(original, path)
        restored = load_predictor(path)
        assert not restored.config.track_witnesses
        assert restored.score(0, 1, "common_neighbors") == original.score(
            0, 1, "common_neighbors"
        )

    def test_empty_predictor_round_trips(self, tmp_path):
        path = checkpoint_path(tmp_path)
        assert save_predictor(MinHashLinkPredictor(), path) == 0
        restored = load_predictor(path)
        assert restored.vertex_count == 0
        assert restored.score(1, 2, "jaccard") == 0.0


class TestFileObjects:
    def test_bytesio_round_trip(self):
        """In-memory checkpoints (the distributed-ingest transport)."""
        import io

        original = MinHashLinkPredictor(SketchConfig(k=32, seed=9))
        original.process(from_pairs(TOY_EDGES))
        buffer = io.BytesIO()
        save_predictor(original, buffer)
        buffer.seek(0)
        restored = load_predictor(buffer)
        assert restored.score(0, 1, "adamic_adar") == original.score(
            0, 1, "adamic_adar"
        )


class TestIntegrity:
    """The hardened-write guarantees: atomicity, checksums, metadata."""

    def _saved(self, tmp_path, k=16, seed=8, metadata=None):
        predictor = MinHashLinkPredictor(SketchConfig(k=k, seed=seed))
        predictor.process(from_pairs(TOY_EDGES))
        path = checkpoint_path(tmp_path)
        save_predictor(predictor, path, metadata=metadata)
        return predictor, path

    def test_no_temp_files_left_behind(self, tmp_path):
        self._saved(tmp_path)
        leftovers = [p for p in tmp_path.iterdir() if ".tmp-" in p.name]
        assert leftovers == []

    def test_metadata_round_trips(self, tmp_path):
        _, path = self._saved(tmp_path, metadata={"stream_offset": 4242, "generation": 7})
        assert read_checkpoint(path).metadata == {"stream_offset": 4242, "generation": 7}

    def test_no_metadata_is_empty_dict(self, tmp_path):
        _, path = self._saved(tmp_path)
        assert read_checkpoint(path).metadata == {}

    def test_suffixless_path_gets_npz_suffix(self, tmp_path):
        """np.savez appends .npz to suffixless paths; the atomic path
        must mirror that so callers find the file where numpy would
        have put it."""
        predictor = MinHashLinkPredictor(SketchConfig(k=8, seed=2))
        predictor.process(from_pairs(TOY_EDGES))
        save_predictor(predictor, tmp_path / "state")
        assert (tmp_path / "state.npz").exists()
        assert load_predictor(tmp_path / "state.npz").vertex_count == predictor.vertex_count

    def test_bit_flip_in_payload_detected(self, tmp_path):
        from repro.errors import CheckpointCorruptError

        _, path = self._saved(tmp_path)
        fields = read_fields(path)
        values = fields["values"].copy()
        values[0, 0] ^= 1  # single bit flip, archive stays a valid zip
        fields["values"] = values
        for writer in WRITERS.values():
            writer(path, **fields)
            with pytest.raises(CheckpointCorruptError, match="checksum"):
                load_predictor(path)

    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9, 0.99])
    def test_truncation_at_any_offset_rejected(self, tmp_path, fraction):
        from repro.errors import CheckpointCorruptError

        _, path = self._saved(tmp_path, k=32)
        fields = read_fields(path)
        for writer in WRITERS.values():
            writer(path, **fields)
            raw = path.read_bytes()
            path.write_bytes(raw[: int(len(raw) * fraction)])
            with pytest.raises(CheckpointCorruptError):
                load_predictor(path)

    def test_members_are_stored_not_deflated(self, tmp_path):
        import zipfile

        _, path = self._saved(tmp_path)
        with zipfile.ZipFile(path) as archive:
            assert {info.compress_type for info in archive.infolist()} == {
                zipfile.ZIP_STORED
            }

    def test_checksum_matches_the_tobytes_formula(self, tmp_path):
        """Hashing array buffers in place must give the digest the
        earlier ``tobytes()`` copies gave, byte for byte."""
        import hashlib

        _, path = self._saved(tmp_path, metadata={"stream_offset": 5})
        fields = read_fields(path)
        stored = bytes(fields.pop("sha256")).hex()
        digest = hashlib.sha256()
        for name in sorted(fields):
            array = np.asarray(fields[name])
            digest.update(name.encode("utf-8") + b"\x00")
            digest.update(str(array.dtype).encode("utf-8") + b"\x00")
            digest.update(repr(array.shape).encode("utf-8") + b"\x00")
            digest.update(np.ascontiguousarray(array).tobytes())
        assert digest.hexdigest() == stored

    @pytest.mark.parametrize("track_witnesses", [True, False])
    def test_deflated_checkpoint_loads_through_both_builders(
        self, tmp_path, track_witnesses
    ):
        """A checkpoint written the earlier way (same fields, deflated)
        restores bit-identically as a predictor and as arrays."""
        predictor = MinHashLinkPredictor(
            SketchConfig(k=16, seed=8, track_witnesses=track_witnesses)
        )
        predictor.process(erdos_renyi(60, 200, seed=4))
        path = checkpoint_path(tmp_path)
        save_predictor(predictor, path, metadata={"generation": 3})
        np.savez_compressed(path, **read_fields(path))
        expected = predictor.export_arrays()

        checkpoint = read_checkpoint(path)
        assert checkpoint.metadata == {"generation": 3}
        for arrays in (
            checkpoint.export_arrays(),
            checkpoint.to_predictor().export_arrays(),
        ):
            for name, array in expected._asdict().items():
                got = getattr(arrays, name)
                if array is None:
                    assert got is None, name
                else:
                    assert got.dtype == array.dtype and np.array_equal(got, array), name

    def test_missing_file_is_not_corrupt(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_predictor(tmp_path / "never-written.npz")


def _tobytes_checksum(fields, guard):
    """The checkpoint checksum formula, spelled out over ``tobytes()``
    copies: the predictor fields, or with ``guard`` the guard fields."""
    digest = hashlib.sha256()
    for name in sorted(fields):
        if name in ("sha256", "guard_sha256") or name.startswith("guard_") != guard:
            continue
        array = np.asarray(fields[name])
        digest.update(name.encode("utf-8") + b"\x00")
        digest.update(str(array.dtype).encode("utf-8") + b"\x00")
        digest.update(repr(array.shape).encode("utf-8") + b"\x00")
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.digest()


#: Guard fields as ``StreamGuard.state_arrays`` hands them over; the
#: reversed view is not contiguous.
GUARD = {"keys": np.arange(7, dtype=np.uint64)[::-1], "high_water": np.float64(9.5)}


class TestStreamedWriter:
    """``save_predictor`` writes the archive member by member, gathers
    the sketch matrices from the store in ``ROW_CHUNK``-row chunks and
    hashes as it writes; the result reads as ``np.savez`` wrote it."""

    @staticmethod
    def _predictor(track=True, k=8, vertices=2 * ROW_CHUNK + 300, edges=6000):
        predictor = MinHashLinkPredictor(SketchConfig(k=k, seed=6, track_witnesses=track))
        pairs = np.array([(e.u, e.v) for e in erdos_renyi(vertices, edges, seed=3)])
        predictor.update_block(pairs[:, 0], pairs[:, 1])  # rows in arrival order, not id order
        return predictor

    @pytest.mark.parametrize("track", [True, False])
    def test_same_members_and_checksums_as_np_savez(self, tmp_path, track):
        predictor = self._predictor(track)
        path = checkpoint_path(tmp_path)
        save_predictor(predictor, path, metadata={"stream_offset": 11}, guard=GUARD)
        fields = read_fields(path)
        for name, array in predictor.export_arrays()._asdict().items():
            expected = np.empty((0, 0), dtype=np.int64) if array is None else array
            assert fields[name].dtype == expected.dtype and np.array_equal(fields[name], expected)
        assert np.array_equal(fields["guard_keys"], GUARD["keys"])
        assert bytes(fields["sha256"]) == _tobytes_checksum(fields, guard=False)
        assert bytes(fields["guard_sha256"]) == _tobytes_checksum(fields, guard=True)

        reference = tmp_path / "reference.npz"
        np.savez(reference, **fields)
        with zipfile.ZipFile(path) as ours, zipfile.ZipFile(reference) as theirs:
            names = ours.namelist()
            assert sorted(names) == sorted(theirs.namelist())
            for name in names:
                assert ours.read(name) == theirs.read(name), name
        assert names[-2:] == ["guard_sha256.npy", "sha256.npy"]
        assert names[:-2] == sorted(names[:-2])

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_archives_of_the_earlier_writer_still_load(self, tmp_path, writer):
        """The fields, in the order the ``np.savez`` writer laid them
        out, stored or deflated, guard included."""
        predictor = self._predictor()
        exported = predictor.export_arrays()
        fields = {
            "format_version": np.int64(FORMAT_VERSION),
            "k": np.int64(8),
            "seed": np.uint64(6),
            "track_witnesses": np.bool_(True),
            **exported._asdict(),
            "meta_stream_offset": np.int64(11),
        }
        fields["sha256"] = np.frombuffer(_tobytes_checksum(fields, guard=False), dtype=np.uint8)
        fields.update({"guard_" + key: value for key, value in GUARD.items()})
        fields["guard_sha256"] = np.frombuffer(_tobytes_checksum(fields, guard=True), dtype=np.uint8)
        path = checkpoint_path(tmp_path)
        WRITERS[writer](path, **fields)

        checkpoint = read_checkpoint(path, guard=True)
        assert checkpoint.metadata == {"stream_offset": 11}
        assert np.array_equal(checkpoint.guard["keys"], GUARD["keys"])
        restored = checkpoint.to_predictor().export_arrays()
        for name, array in exported._asdict().items():
            assert np.array_equal(getattr(restored, name), array), name

    def test_a_save_holds_about_one_chunk(self, tmp_path):
        """The sorted ``export_arrays()`` copy plus ``np.savez``'s
        ``tobytes()`` of each member held ~1.5x the store; the streamed
        writer holds one chunk buffer and a few per-vertex columns."""
        k = 64
        predictor = self._predictor(k=k, vertices=6000, edges=30000)
        path = checkpoint_path(tmp_path)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            save_predictor(predictor, path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        n = predictor.vertex_count
        assert n * (16 * k + 8) > 6_000_000  # the store this bounds against
        assert peak <= 2 * ROW_CHUNK * k * 8 + 6 * 8 * n


class TestValidation:
    def test_countmin_degrees_not_checkpointable(self, tmp_path):
        predictor = MinHashLinkPredictor(SketchConfig(degree_mode="countmin"))
        with pytest.raises(SketchStateError):
            save_predictor(predictor, checkpoint_path(tmp_path))

    def test_future_format_version_rejected(self, tmp_path):
        predictor = MinHashLinkPredictor(SketchConfig(k=8))
        predictor.process(from_pairs(TOY_EDGES))
        path = checkpoint_path(tmp_path)
        save_predictor(predictor, path)
        fields = read_fields(path)
        fields["format_version"] = np.int64(FORMAT_VERSION + 1)
        np.savez_compressed(path, **fields)
        with pytest.raises(ConfigurationError, match="version"):
            load_predictor(path)


class TestLoadErrorContract:
    """The operator-facing load errors: wrong file vs corrupt vs
    incompatible, each with a message that names the problem."""

    def _saved_fields(self, tmp_path, **config):
        predictor = MinHashLinkPredictor(SketchConfig(k=8, seed=1, **config))
        predictor.process(from_pairs(TOY_EDGES))
        path = checkpoint_path(tmp_path)
        save_predictor(predictor, path)
        return path, read_fields(path)

    def _rewrite(self, path, fields):
        """Re-checksum and rewrite, so only the *semantic* change is
        visible to the loader (not a checksum mismatch)."""
        from repro.core.persistence import _payload_checksum

        fields.pop("sha256", None)
        fields["sha256"] = np.frombuffer(
            bytes.fromhex(_payload_checksum(fields)), dtype=np.uint8
        )
        np.savez_compressed(path, **fields)

    def test_non_checkpoint_npz_names_missing_fields(self, tmp_path):
        from repro.errors import CheckpointCorruptError

        path = tmp_path / "model.npz"
        np.savez(path, weights=np.arange(4.0), bias=np.zeros(2))
        with pytest.raises(CheckpointCorruptError) as excinfo:
            load_predictor(path)
        message = str(excinfo.value)
        assert "not a predictor checkpoint archive" in message
        # Both what's absent and what the file actually holds.
        assert "missing field(s)" in message
        assert "values" in message and "vertex_ids" in message
        assert "weights" in message

    def test_single_missing_field_rejected_before_checksum(self, tmp_path):
        from repro.errors import CheckpointCorruptError

        path, fields = self._saved_fields(tmp_path)
        del fields["degrees"]
        self._rewrite(path, fields)
        with pytest.raises(CheckpointCorruptError, match="missing field"):
            load_predictor(path)

    def test_incompatible_config_wrapped_with_context(self, tmp_path):
        path, fields = self._saved_fields(tmp_path)
        fields["k"] = np.int64(0)
        self._rewrite(path, fields)
        with pytest.raises(ConfigurationError) as excinfo:
            load_predictor(path)
        message = str(excinfo.value)
        assert "incompatible sketch configuration" in message
        assert "k must be positive" in message
