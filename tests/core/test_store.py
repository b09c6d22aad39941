"""The predictor's columnar sketch store: pickling, merging, memory.

The store keeps one growable matrix per sketch component, so the
predictor's footprint is its ``16k + 8`` bytes per vertex (values,
witnesses, update count) times at most the 2x capacity slack — never
per-vertex objects or batch matrices kept alive by row views.
"""

from __future__ import annotations

import os
import pickle
import tracemalloc

import numpy as np
import pytest

import repro.core
from repro.core import MinHashLinkPredictor, SketchConfig, merge_shards
from repro.core.predictor import SketchArrays
from repro.graph.generators import barabasi_albert, erdos_renyi
from repro.serve import PackedSketches


def _ingested(config, edges, batch=512):
    predictor = MinHashLinkPredictor(config)
    us = np.array([edge.u for edge in edges], dtype=np.int64)
    vs = np.array([edge.v for edge in edges], dtype=np.int64)
    for start in range(0, len(us), batch):
        predictor.update_block(us[start : start + batch], vs[start : start + batch])
    return predictor


def _assert_same_arrays(left, right):
    for field, a, b in zip(SketchArrays._fields, left, right):
        if a is None or b is None:
            assert a is None and b is None, field
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b), field


class TestPickling:
    @pytest.mark.parametrize("track", [True, False])
    def test_pickle_holds_live_rows_only(self, track):
        k = 32
        config = SketchConfig(k=k, seed=4, track_witnesses=track)
        predictor = _ingested(config, erdos_renyi(700, 3000, seed=2))
        n = predictor.vertex_count
        blob = pickle.dumps(predictor)
        per_vertex = (16 if track else 8) * k + 8  # sketch columns
        # Plus each vertex's id and degree counter (16 bytes together);
        # config, hash bank and array headers are a fixed overhead.
        assert len(blob) <= n * (per_vertex + 16) + 4096

    def test_round_trip_keeps_the_fingerprint(self):
        predictor = _ingested(SketchConfig(k=16, seed=8), erdos_renyi(300, 1200, seed=3))
        restored = pickle.loads(pickle.dumps(predictor))
        assert (
            PackedSketches.from_predictor(restored).fingerprint()
            == PackedSketches.from_predictor(predictor).fingerprint()
        )
        # The restored store keeps streaming like the original.
        for u, v in ((0, 1000), (1000, 1001), (2, 3)):
            restored.update(u, v)
            predictor.update(u, v)
        _assert_same_arrays(restored.export_arrays(), predictor.export_arrays())


class TestMergeTies:
    CONFIG = SketchConfig(k=3, seed=1)

    def _shard(self, values, witnesses, count):
        return MinHashLinkPredictor.from_arrays(
            self.CONFIG,
            SketchArrays(
                np.array([0], dtype=np.int64),
                np.array([values], dtype=np.uint64),
                np.array([witnesses], dtype=np.int64),
                np.array([count], dtype=np.int64),
                np.array([count], dtype=np.int64),
            ),
        )

    def test_a_tie_keeps_the_left_shards_witness(self):
        left = self._shard([10, 20, 30], [1, 2, 3], 3)
        right = self._shard([10, 15, 30], [7, 8, 9], 2)
        merged = left.merge(right).sketch(0)
        assert merged.values.tolist() == [10, 15, 30]
        assert merged.witnesses.tolist() == [1, 8, 3]
        assert merged.update_count == 5
        assert merged == left.sketch(0).merge(right.sketch(0))
        assert right.merge(left).sketch(0).witnesses.tolist() == [7, 8, 9]

    def test_merge_shards_equals_the_pairwise_fold(self):
        shards = [
            self._shard([10, 20, 30], [1, 2, 3], 1),
            self._shard([10, 15, 30], [4, 5, 6], 1),
            self._shard([9, 15, 30], [7, 8, 9], 1),
        ]
        folded = merge_shards(shards)
        pairwise = shards[0].merge(shards[1]).merge(shards[2])
        _assert_same_arrays(folded.export_arrays(), pairwise.export_arrays())
        assert folded.sketch(0).witnesses.tolist() == [7, 5, 3]
        assert folded.degree(0) == 3


class TestRetainedMemory:
    def test_block_ingest_keeps_no_batch_matrices_alive(self):
        """What the store holds after block ingest is its rows: at most
        the 2x capacity slack over ``16k + 8`` bytes per vertex, plus the
        degree table.  Batch matrices kept alive by row views held
        ~4x."""
        k = 64
        edges = barabasi_albert(3200, 16, seed=5)  # ~51k edges
        core = os.path.dirname(repro.core.__file__)
        degree_table = os.path.join(core, "degrees.py")
        tracemalloc.start()
        try:
            predictor = _ingested(SketchConfig(k=k, seed=1), edges, batch=4096)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        held = sum(
            stat.size
            for stat in snapshot.statistics("filename")
            if stat.traceback[0].filename.startswith(core)
            and stat.traceback[0].filename != degree_table
        )
        n = predictor.vertex_count
        assert n == 3200
        assert held <= 2.5 * n * (16 * k + 8)


class TestTransientMemory:
    def test_one_block_call_holds_the_hashed_keys_and_one_slab(self):
        """One ``update_block`` call's scratch is the hashed unique keys
        (at most one ``k``-row per vertex), one slab of the pair walk and
        per-edge index arrays; no matrix spans the batch's ``(row, key)``
        pairs.  Growing the batch 4x over the same vertices therefore
        adds only index arrays (~140 bytes per edge here; the batch-wide
        matrices took ~2.2 KB per edge at k=64)."""
        k, vertices = 64, 3000
        rng = np.random.default_rng(7)

        def scratch(edges):
            predictor = MinHashLinkPredictor(SketchConfig(k=k, seed=1))
            ring = np.arange(vertices)
            predictor.update_block(ring, (ring + 1) % vertices)  # every row and degree exists
            us = rng.integers(0, vertices, 2 * edges)
            vs = rng.integers(0, vertices, 2 * edges)
            keep = us != vs
            us, vs = us[keep][:edges], vs[keep][:edges]
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                predictor.update_block(us, vs)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        small, large = scratch(4096), scratch(16384)
        slab = repro.core.block.SLAB_PAIRS * k * 8
        assert small <= vertices * k * 8 + 4 * slab + 4096 * 256
        assert large - small <= (16384 - 4096) * 256
