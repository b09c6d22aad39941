"""Tests for building the packed serving store straight from shards.

``PackedSketches.from_shards`` must equal the two-step path — merge the
shard predictors, then ``from_predictor`` — bit for bit, without
materialising the merged predictor.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import MinHashLinkPredictor, SketchConfig
from repro.core.predictor import merge_shards
from repro.errors import ConfigurationError, SketchStateError
from repro.serve import PackedSketches


def edge_shard(u: int, v: int, workers: int) -> int:
    """An edge partition: a vertex's rows overlap across shards, the
    shape of checkpoint directories written before vertex ownership,
    which ``from_shards`` still folds."""
    return (min(u, v) * 31 + max(u, v)) % workers


def build_shards(workers=3, k=16, seed=4, edges=600, vertices=80, **overrides):
    config = SketchConfig(k=k, seed=seed, degree_mode="exact", **overrides)
    shards = [MinHashLinkPredictor(config) for _ in range(workers)]
    rng = random.Random(seed)
    for _ in range(edges):
        u, v = rng.randrange(vertices), rng.randrange(vertices)
        if u != v:
            shards[edge_shard(u, v, workers)].update(u, v)
    return shards


class TestFromShards:
    def test_equals_merge_then_pack(self):
        shards = build_shards()
        direct = PackedSketches.from_shards(shards)
        merged = PackedSketches.from_predictor(merge_shards(list(shards)))
        assert np.array_equal(direct.vertex_ids, merged.vertex_ids)
        assert np.array_equal(direct.values, merged.values)
        assert np.array_equal(direct.witnesses, merged.witnesses)
        assert np.array_equal(direct.update_counts, merged.update_counts)
        assert np.array_equal(direct.degrees, merged.degrees)
        assert direct.k == merged.k and direct.seed == merged.seed

    def test_disjoint_vertex_sets_union(self):
        config = SketchConfig(k=8, seed=2, degree_mode="exact")
        a, b = MinHashLinkPredictor(config), MinHashLinkPredictor(config)
        a.update(1, 2)
        b.update(10, 20)
        store = PackedSketches.from_shards([a, b])
        assert store.vertex_ids.tolist() == [1, 2, 10, 20]
        assert store.n_vertices == 4

    def test_single_shard_equals_from_predictor(self):
        (shard,) = build_shards(workers=1)
        direct = PackedSketches.from_shards([shard])
        alone = PackedSketches.from_predictor(shard)
        assert np.array_equal(direct.values, alone.values)
        assert np.array_equal(direct.degrees, alone.degrees)

    def test_witnessless_shards_pack_without_witnesses(self):
        shards = build_shards(track_witnesses=False)
        store = PackedSketches.from_shards(shards)
        assert store.witnesses is None

    def test_empty_shard_list_rejected(self):
        with pytest.raises(ConfigurationError):
            PackedSketches.from_shards([])

    def test_mismatched_configs_rejected(self):
        a = MinHashLinkPredictor(SketchConfig(k=8, seed=1, degree_mode="exact"))
        b = MinHashLinkPredictor(SketchConfig(k=8, seed=2, degree_mode="exact"))
        with pytest.raises(SketchStateError):
            PackedSketches.from_shards([a, b])

    def test_countmin_degree_shards_rejected(self):
        config = SketchConfig(k=8, seed=1, degree_mode="countmin")
        a, b = MinHashLinkPredictor(config), MinHashLinkPredictor(config)
        with pytest.raises(ConfigurationError):
            PackedSketches.from_shards([a, b])
