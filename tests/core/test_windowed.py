"""Tests for the sliding-window predictor."""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core import MinHashLinkPredictor, SketchConfig
from repro.core.windowed import WindowedMinHashPredictor
from repro.errors import ConfigurationError
from repro.graph import from_pairs
from repro.graph.generators import barabasi_albert, erdos_renyi


def config(k=64, seed=7, **kwargs):
    return SketchConfig(k=k, seed=seed, **kwargs)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WindowedMinHashPredictor(config(), pane_edges=0)
        with pytest.raises(ConfigurationError):
            WindowedMinHashPredictor(config(), panes=1)
        with pytest.raises(ConfigurationError):
            WindowedMinHashPredictor(config(degree_mode="countmin"))


class TestWindowSemantics:
    def test_matches_unwindowed_while_window_covers_stream(self):
        stream = erdos_renyi(60, 200, seed=1)
        windowed = WindowedMinHashPredictor(config(), pane_edges=100, panes=4)
        plain = MinHashLinkPredictor(config())
        for predictor in (windowed, plain):
            predictor.process(stream)
        assert windowed.window_edges == 200
        for u in range(0, 10):
            for v in range(10, 20):
                for measure in ("jaccard", "common_neighbors", "adamic_adar"):
                    assert windowed.score(u, v, measure) == plain.score(
                        u, v, measure
                    ), (u, v, measure)

    def test_old_edges_are_forgotten(self):
        # Phase 1 connects 0-{1..5}; then enough filler edges (among
        # unrelated vertices) rotate the window past phase 1 entirely.
        windowed = WindowedMinHashPredictor(config(), pane_edges=10, panes=2)
        windowed.process(from_pairs([(0, i) for i in range(1, 6)]))
        assert windowed.degree(0) == 5
        filler = [(100 + i, 200 + i) for i in range(40)]
        windowed.process(from_pairs(filler))
        assert windowed.degree(0) == 0
        assert windowed.score(0, 1, "common_neighbors") == 0.0

    def test_window_edges_bounded(self):
        windowed = WindowedMinHashPredictor(config(k=8), pane_edges=10, panes=3)
        windowed.process(from_pairs([(i, i + 1) for i in range(100)]))
        assert windowed.window_edges <= 30
        assert windowed.window_edges > 20

    def test_recent_edges_always_visible(self):
        windowed = WindowedMinHashPredictor(config(), pane_edges=10, panes=2)
        windowed.process(from_pairs([(i, i + 1) for i in range(95)]))
        windowed.process(from_pairs([(0, 500), (1, 500)]))
        # 0 and 1 share the fresh neighbor 500.
        assert windowed.score(0, 1, "common_neighbors") > 0.0

    def test_degree_sums_over_panes(self):
        windowed = WindowedMinHashPredictor(config(), pane_edges=3, panes=4)
        # Vertex 0 gains one neighbor in each of 3 panes.
        edges = [(0, 1), (10, 11), (12, 13),
                 (0, 2), (14, 15), (16, 17),
                 (0, 3)]
        windowed.process(from_pairs(edges))
        assert windowed.degree(0) == 3
        assert len(windowed._stores) == 3


class TestAccounting:
    def test_memory_bounded_by_pane_count(self):
        windowed = WindowedMinHashPredictor(config(k=8), pane_edges=20, panes=2)
        windowed.process(from_pairs([(i, i + 1) for i in range(500)]))
        # At most 2 panes of at most 20 edges => at most ~80 sketched
        # vertex slots alive regardless of stream length.
        per_vertex = 8 * 16 + 8
        assert windowed.nominal_bytes() <= 2 * 40 * per_vertex

    def test_vertex_count_deduplicates_across_panes(self):
        windowed = WindowedMinHashPredictor(config(k=8), pane_edges=2, panes=3)
        windowed.process(from_pairs([(0, 1), (0, 2), (0, 3), (0, 4)]))
        assert windowed.vertex_count == 5

    def test_vertex_count_reads_the_id_columns(self):
        # The union of the panes' exported ids, counted from their live
        # id columns: no sketch matrix is copied to count.
        windowed = WindowedMinHashPredictor(config(k=64), pane_edges=1000, panes=4)
        windowed.process(barabasi_albert(2000, 3, seed=5))
        assert len(windowed._stores) == 4
        union = set()
        for store in windowed._stores:
            union.update(store.export_arrays().vertex_ids.tolist())
        assert windowed.vertex_count == len(union)
        ids = sum(store.vertex_count for store in windowed._stores)
        tracemalloc.start()
        try:
            windowed.vertex_count
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # ~20 B per pane id; exporting the panes took ~390 at k=64.
        assert peak <= 32 * ids

    def test_cold_vertices_score_zero(self):
        windowed = WindowedMinHashPredictor(config(k=8), pane_edges=5, panes=2)
        windowed.process(from_pairs([(1, 2)]))
        assert windowed.score(1, 99, "jaccard") == 0.0
        assert windowed.score(98, 99, "adamic_adar") == 0.0

    def test_preferential_attachment(self):
        windowed = WindowedMinHashPredictor(config(k=8), pane_edges=5, panes=2)
        windowed.process(from_pairs([(0, 1), (0, 2), (3, 1)]))
        assert windowed.score(0, 3, "preferential_attachment") == 2.0
