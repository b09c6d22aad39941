"""Tests for distributed predictor merging."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MinHashLinkPredictor, SketchConfig
from repro.errors import ConfigurationError, SketchStateError
from repro.graph import from_pairs
from repro.graph.generators import chung_lu, erdos_renyi


def split_stream(edges, parts):
    """Round-robin partition of a stream's edges."""
    return [list(edges[i::parts]) for i in range(parts)]


class TestMergeEquivalence:
    def test_two_way_merge_is_bit_identical_to_single_pass(self):
        edges = erdos_renyi(80, 500, seed=1)
        config = SketchConfig(k=64, seed=2)
        single = MinHashLinkPredictor(config)
        single.process(edges)
        part_a, part_b = split_stream(edges, 2)
        worker_a = MinHashLinkPredictor(config)
        worker_b = MinHashLinkPredictor(config)
        worker_a.process(part_a)
        worker_b.process(part_b)
        merged = worker_a.merge(worker_b)
        assert merged.vertex_count == single.vertex_count
        for vertex in single.export_arrays().vertex_ids.tolist():
            assert np.array_equal(
                merged.sketch(vertex).values, single.sketch(vertex).values
            )
            assert merged.degree(vertex) == single.degree(vertex)

    def test_merged_queries_match_single_pass(self):
        edges = chung_lu(n=150, edges=900, exponent=2.5, seed=3)
        config = SketchConfig(k=128, seed=4)
        single = MinHashLinkPredictor(config)
        single.process(edges)
        workers = []
        for part in split_stream(edges, 4):
            worker = MinHashLinkPredictor(config)
            worker.process(part)
            workers.append(worker)
        merged = workers[0]
        for worker in workers[1:]:
            merged = merged.merge(worker)
        for u in range(0, 20, 3):
            for v in range(1, 20, 3):
                if u == v:
                    continue
                for measure in ("jaccard", "common_neighbors", "adamic_adar"):
                    assert merged.score(u, v, measure) == single.score(
                        u, v, measure
                    )

    def test_merge_with_empty_partition(self):
        edges = erdos_renyi(40, 150, seed=5)
        config = SketchConfig(k=32, seed=6)
        loaded = MinHashLinkPredictor(config)
        loaded.process(edges)
        empty = MinHashLinkPredictor(config)
        merged = loaded.merge(empty)
        assert merged.vertex_count == loaded.vertex_count
        assert merged.score(0, 1, "jaccard") == loaded.score(0, 1, "jaccard")

    def test_merge_leaves_inputs_untouched(self):
        config = SketchConfig(k=16, seed=7)
        a = MinHashLinkPredictor(config)
        b = MinHashLinkPredictor(config)
        a.process(from_pairs([(0, 1), (0, 2)]))
        b.process(from_pairs([(3, 4)]))
        degree_before = a.degree(0)
        a.merge(b)
        assert a.degree(0) == degree_before
        assert a.sketch(3) is None


class TestMergeValidation:
    def test_mismatched_configs_rejected(self):
        a = MinHashLinkPredictor(SketchConfig(k=16, seed=1))
        b = MinHashLinkPredictor(SketchConfig(k=32, seed=1))
        with pytest.raises(SketchStateError):
            a.merge(b)
        c = MinHashLinkPredictor(SketchConfig(k=16, seed=2))
        with pytest.raises(SketchStateError):
            a.merge(c)

    def test_countmin_degree_mode_rejected(self):
        config = SketchConfig(k=16, seed=1, degree_mode="countmin")
        a = MinHashLinkPredictor(config)
        b = MinHashLinkPredictor(config)
        with pytest.raises(ConfigurationError):
            a.merge(b)
