"""Tests for the packed sketch store (layout + lookup semantics)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MinHashLinkPredictor, SketchConfig
from repro.errors import SketchStateError
from repro.graph import from_pairs
from repro.serve import PackedSketches

EDGES = [(0, 2), (1, 2), (0, 3), (1, 3), (4, 5), (2, 7)]


def warm_predictor(k=32, seed=9, **overrides):
    predictor = MinHashLinkPredictor(SketchConfig(k=k, seed=seed, **overrides))
    predictor.process(from_pairs(EDGES))
    return predictor


class TestPacking:
    def test_rows_match_predictor_sketches(self):
        predictor = warm_predictor()
        store = PackedSketches.from_predictor(predictor)
        assert store.n_vertices == predictor.vertex_count
        for vertex in predictor.export_arrays().vertex_ids.tolist():
            sketch = predictor.sketch(vertex)
            row = store.row_of(vertex)
            assert row >= 0
            assert np.array_equal(store.values[row], sketch.values)
            assert np.array_equal(store.witnesses[row], sketch.witnesses)
            assert store.degrees[row] == predictor.degree(vertex)

    def test_vertex_ids_sorted(self):
        store = PackedSketches.from_predictor(warm_predictor())
        assert np.array_equal(store.vertex_ids, np.sort(store.vertex_ids))

    def test_pack_is_a_frozen_snapshot(self):
        predictor = warm_predictor()
        store = PackedSketches.from_predictor(predictor)
        before = store.values.copy()
        predictor.update(0, 99)  # stream keeps moving
        assert np.array_equal(store.values, before)
        assert store.row_of(99) == -1

    def test_witnessless_predictor_packs_without_witnesses(self):
        store = PackedSketches.from_predictor(
            warm_predictor(track_witnesses=False)
        )
        assert store.witnesses is None
        assert store.nominal_bytes() > 0

    @pytest.mark.parametrize("track", [True, False])
    def test_nominal_bytes_counts_every_array(self, track):
        store = PackedSketches.from_predictor(warm_predictor(track_witnesses=track))
        held = [store.vertex_ids, store.values, store.witnesses, store.degrees,
                store.update_counts]
        assert store.nominal_bytes() == sum(a.nbytes for a in held if a is not None)
        n, k = store.n_vertices, store.k
        assert store.nominal_bytes() == n * (k * (16 if track else 8) + 24)

    def test_empty_predictor_packs_empty(self):
        store = PackedSketches.from_predictor(
            MinHashLinkPredictor(SketchConfig(k=8, seed=1))
        )
        assert store.n_vertices == 0
        assert np.array_equal(store.rows_of([1, 2, 3]), [-1, -1, -1])
        assert np.array_equal(store.degrees_of([1, 2]), [0, 0])

    def test_shape_validation(self):
        predictor = warm_predictor(k=16)
        exported = predictor.export_arrays()
        with pytest.raises(SketchStateError):
            PackedSketches(
                exported.vertex_ids,
                exported.values[:, :8],  # wrong width
                exported.witnesses,
                exported.degrees,
                exported.update_counts,
                k=16,
                seed=9,
            )


class TestLookup:
    def test_rows_of_mixed_batch(self):
        store = PackedSketches.from_predictor(warm_predictor())
        rows = store.rows_of([0, 42, 5, -3, 7])
        assert rows[0] >= 0 and rows[2] >= 0 and rows[4] >= 0
        assert rows[1] == -1 and rows[3] == -1

    def test_degrees_of_unseen_is_zero(self):
        predictor = warm_predictor()
        store = PackedSketches.from_predictor(predictor)
        degs = store.degrees_of([2, 1234, 4])
        assert degs[0] == predictor.degree(2)
        assert degs[1] == 0
        assert degs[2] == predictor.degree(4)

    def test_pack_time_recorded(self):
        store = PackedSketches.from_predictor(warm_predictor())
        assert store.pack_seconds >= 0.0


class TestExportApi:
    def test_export_arrays_round_trips_through_from_arrays(self):
        from repro.sketches.minhash import KMinHash

        predictor = warm_predictor(k=16)
        exported = predictor.export_arrays()
        for row, vertex in enumerate(exported.vertex_ids.tolist()):
            rebuilt = KMinHash.from_arrays(
                predictor.bank,
                exported.values[row],
                exported.witnesses[row],
                update_count=int(exported.update_counts[row]),
            )
            assert rebuilt == predictor.sketch(vertex)

    def test_export_copies_do_not_alias_live_state(self):
        predictor = warm_predictor(k=16)
        exported = predictor.export_arrays()
        exported.values.fill(0)
        assert predictor.score(0, 1, "jaccard") >= 0.0  # live state intact
        fresh = predictor.export_arrays()
        assert not np.array_equal(fresh.values, exported.values)

    def test_from_arrays_rejects_wrong_length(self):
        from repro.hashing import HashBank
        from repro.sketches.minhash import KMinHash

        bank = HashBank(seed=3, size=8)
        with pytest.raises(SketchStateError):
            KMinHash.from_arrays(bank, np.zeros(5, dtype=np.uint64))
        with pytest.raises(SketchStateError):
            KMinHash.from_arrays(
                bank, np.zeros(8, dtype=np.uint64), np.zeros(5, dtype=np.int64)
            )


class TestFingerprintDigests:
    """Both sketch fingerprints hash array buffers in place; the digests
    must stay the ones the earlier ``tobytes()`` copies gave, which the
    perfbench reference fingerprints and served generations rest on."""

    PINNED = {
        # track_witnesses: (PackedSketches.fingerprint, casebook.sketch_fingerprint)
        True: (
            "4ba964bbc421be8f0cfb338454129838b4131a71d30928710473a4208118bf7e",
            "a9fdebe2ed7431b540e5fb4168e7a1b97687b9ba3f0643fe3ff5cd795e241f0f",
        ),
        False: (
            "3d94f88dce0d3c1dbe7817cf6f7c94fe1fd9580ea6a14a5d0207383c874365d5",
            "4a6993a407503379efa136d1dd90d76210a7c458a96c96d09908abc5965fd8e0",
        ),
    }

    @pytest.mark.parametrize("track", [True, False])
    def test_digests_are_pinned(self, track):
        from repro.graph.generators import barabasi_albert
        from repro.stream.casebook import sketch_fingerprint

        predictor = MinHashLinkPredictor(SketchConfig(k=16, seed=5, track_witnesses=track))
        for edge in barabasi_albert(300, 3, seed=11):
            predictor.update(edge.u, edge.v)
        packed = PackedSketches.from_predictor(predictor)
        assert (packed.fingerprint(), sketch_fingerprint(predictor)) == self.PINNED[track]
