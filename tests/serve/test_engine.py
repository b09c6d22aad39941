"""Tests for the batch query engine: scalar/batch parity, top-k
pruning equivalence, chunking, and the stats surface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MinHashLinkPredictor, SketchConfig
from repro.errors import ConfigurationError, SketchStateError
from repro.exact.measures import MEASURES
from repro.graph.generators import erdos_renyi
from repro.serve import QueryEngine
from repro.serve.packed import PackedSketches

ALL_MEASURES = sorted(MEASURES)
#: Measures summed over witness weights: the only ones where the scalar
#: and batch paths may differ, in the last bits.
WITNESS_SUMS = ("adamic_adar", "resource_allocation")


def warm_predictor(k=48, seed=11, n=70, m=320, **overrides):
    predictor = MinHashLinkPredictor(SketchConfig(k=k, seed=seed, **overrides))
    predictor.process(erdos_renyi(n, m, seed=seed))
    return predictor


@pytest.fixture(scope="module")
def engine():
    return QueryEngine(warm_predictor())


@pytest.fixture(scope="module")
def query_pairs():
    rng = np.random.default_rng(42)
    pairs = rng.integers(0, 80, size=(300, 2))  # includes unseen ids + self-pairs
    return [(int(u), int(v)) for u, v in pairs]


class TestScoreManyParity:
    @pytest.mark.parametrize("measure", ALL_MEASURES)
    def test_matches_per_pair_scoring(self, engine, query_pairs, measure):
        batch = engine.score_many(query_pairs, measure)
        scalar = np.array(
            [engine.predictor.score(u, v, measure) for u, v in query_pairs]
        )
        if measure in WITNESS_SUMS:
            # Python's sequential sum and NumPy's pairwise sum(axis=1)
            # round the witness weights differently (~4e-16 relative).
            np.testing.assert_allclose(batch, scalar, rtol=1e-12, atol=0)
        else:
            assert np.array_equal(batch, scalar)

    def test_accepts_ndarray_input(self, engine, query_pairs):
        as_list = engine.score_many(query_pairs, "jaccard")
        as_array = engine.score_many(np.asarray(query_pairs), "jaccard")
        assert np.array_equal(as_list, as_array)

    def test_chunking_does_not_change_answers(self, query_pairs):
        whole = QueryEngine(warm_predictor())
        chunked = QueryEngine(warm_predictor(), batch_size=7)
        assert np.array_equal(
            whole.score_many(query_pairs, "adamic_adar"),
            chunked.score_many(query_pairs, "adamic_adar"),
        )

    def test_empty_batch(self, engine):
        assert len(engine.score_many([], "jaccard")) == 0
        assert len(engine.score_many(np.empty((0, 2), dtype=np.int64), "jaccard")) == 0

    def test_bad_shapes_rejected(self, engine):
        with pytest.raises(ConfigurationError):
            engine.score_many([(1, 2, 3)], "jaccard")

    def test_unknown_measure_rejected(self, engine):
        with pytest.raises(ConfigurationError):
            engine.score_many([(0, 1)], "nonsense")

    def test_scalar_convenience(self, engine):
        assert engine.score(0, 1, "jaccard") == pytest.approx(
            engine.predictor.score(0, 1, "jaccard")
        )

    def test_serves_a_packed_store_as_is(self, engine, query_pairs):
        frozen = QueryEngine(PackedSketches.from_predictor(engine.predictor))
        assert frozen.predictor is None
        store = frozen.store
        frozen.refresh()  # nothing to re-pack: the same pack stays served
        assert frozen.store is store
        assert frozen.bands == engine.bands
        assert np.array_equal(
            frozen.score_many(query_pairs, "adamic_adar"),
            engine.score_many(query_pairs, "adamic_adar"),
        )
        assert frozen.top_k(3, "jaccard", k=5) == engine.top_k(3, "jaccard", k=5)

    def test_witness_measures_need_witness_tracking(self):
        engine = QueryEngine(warm_predictor(track_witnesses=False))
        with pytest.raises(SketchStateError):
            engine.score_many([(0, 1)], "adamic_adar")
        # Closed-form and ratio measures still work without witnesses.
        assert engine.score_many([(0, 1)], "common_neighbors") is not None


class TestTopK:
    @pytest.mark.parametrize(
        "measure",
        [m for m in ALL_MEASURES if MEASURES[m].kind != "degree_product"],
    )
    def test_pruned_equals_brute_force(self, engine, measure):
        # The default rows=1 banding has exact recall: pruning changes
        # the work, never the answer.
        for u in (0, 7, 33):
            assert engine.top_k(u, measure, k=12, prune=True) == engine.top_k(
                u, measure, k=12, prune=False
            )

    def test_pruning_scores_strictly_fewer_candidates(self):
        engine = QueryEngine(warm_predictor())
        engine.top_k(3, "jaccard", k=5, prune=False)
        brute = engine.stats()["candidates_scored"]
        engine.refresh()
        engine.top_k(3, "jaccard", k=5, prune=True)
        pruned = engine.stats()["candidates_scored"]
        assert 0 < pruned < brute

    def test_results_sorted_and_positive(self, engine):
        ranked = engine.top_k(0, "adamic_adar", k=10)
        scores = [score for _, score in ranked]
        assert scores == sorted(scores, reverse=True)
        assert all(score > 0 for score in scores)
        assert len(ranked) <= 10

    def test_ties_break_on_ascending_vertex(self, engine):
        ranked = engine.top_k(0, "jaccard", k=30)
        for (va, sa), (vb, sb) in zip(ranked, ranked[1:]):
            assert sa > sb or (sa == sb and va < vb)

    def test_unseen_vertex_returns_empty(self, engine):
        assert engine.top_k(10_000, "jaccard", k=5) == []

    def test_degree_product_auto_brute_forces(self, engine):
        ranked = engine.top_k(0, "preferential_attachment", k=5)
        assert len(ranked) == 5  # every warm partner scores positive
        with pytest.raises(ConfigurationError):
            engine.top_k(0, "preferential_attachment", k=5, prune=True)

    def test_custom_banding_still_subset_of_brute(self):
        # An aggressive shape may lose recall but must never invent
        # candidates or misscore the survivors.
        engine = QueryEngine(warm_predictor(), bands=8, rows=6)
        brute = dict(engine.top_k(0, "jaccard", k=50, prune=False))
        for vertex, score in engine.top_k(0, "jaccard", k=50, prune=True):
            assert brute[vertex] == score

    def test_bad_k_rejected(self, engine):
        with pytest.raises(ConfigurationError):
            engine.top_k(0, "jaccard", k=0)

    def test_pruning_stays_exact_while_the_predictor_keeps_streaming(self):
        # A live server's predictor moves on after a generation is
        # packed; the candidate index must describe the packed snapshot,
        # not the newer live state, or pruned top-k drifts from brute force.
        predictor = warm_predictor()
        engine = QueryEngine(predictor)
        predictor.process(erdos_renyi(70, 200, seed=29))
        for u in engine.store.vertex_ids.tolist():
            assert engine.top_k(u, "jaccard", k=100, prune=True) == engine.top_k(
                u, "jaccard", k=100, prune=False
            )


class TestLifecycle:
    def test_refresh_picks_up_new_edges(self):
        predictor = warm_predictor()
        engine = QueryEngine(predictor)
        assert engine.score(500, 501, "jaccard") == 0.0
        for w in (502, 503, 504):
            predictor.update(500, w)
            predictor.update(501, w)
        assert engine.score(500, 501, "jaccard") == 0.0  # frozen snapshot
        engine.refresh()
        assert engine.score(500, 501, "jaccard") > 0.0

    def test_mismatched_band_args_rejected(self):
        with pytest.raises(ConfigurationError):
            QueryEngine(warm_predictor(), bands=4)

    def test_stats_surface(self):
        engine = QueryEngine(warm_predictor(), clock=iter(range(100)).__next__)
        engine.score_many([(0, 1), (1, 2)], "jaccard")
        engine.top_k(0, "jaccard", k=3)
        stats = engine.stats()
        assert stats["vertices"] == engine.store.n_vertices
        assert stats["pairs_scored"] >= 2
        assert stats["batches"] >= 2
        assert stats["topk_queries"] == 1
        assert stats["index_built"] is True
        assert stats["index_buckets"] > 0
        assert stats["scores_per_second"] > 0
        assert stats["candidates_pruned"] >= 0
        # Flat dict: every value is a scalar (the monitoring contract).
        assert all(not isinstance(v, (dict, list)) for v in stats.values())

    def test_index_bytes_gauge(self):
        engine = QueryEngine(warm_predictor())
        gauge = engine.metrics.get("query_index_bytes")
        assert gauge.value == engine.stats()["index_bytes"] == 0
        engine.top_k(0, "jaccard", k=3)
        held = engine._index.nbytes()
        assert held > 0
        assert gauge.value == engine.stats()["index_bytes"] == held
        engine.refresh()
        assert gauge.value == 0
