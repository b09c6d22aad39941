"""Tests for the MinHash streaming link predictor."""

from __future__ import annotations

import math
import statistics

import pytest

from repro.core import MinHashLinkPredictor, PairEstimate, SketchConfig
from repro.errors import ConfigurationError, SketchStateError
from repro.exact import ExactOracle
from repro.graph import from_pairs
from repro.graph.generators import chung_lu
from tests.conftest import TOY_EDGES


def predictor_for(edges, **config_kwargs):
    config = SketchConfig(**{"k": 256, "seed": 13, **config_kwargs})
    predictor = MinHashLinkPredictor(config)
    predictor.process(from_pairs(edges))
    return predictor


class TestDeterministicSmallCases:
    def test_identical_neighborhoods_estimated_exactly(self):
        # N(0) = N(1) = {2,3,4}: sketches are identical objects, so
        # Ĵ = 1 and ĈN = degree, regardless of seed.
        edges = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
        predictor = predictor_for(edges)
        assert predictor.score(0, 1, "jaccard") == 1.0
        assert predictor.score(0, 1, "common_neighbors") == pytest.approx(3.0)

    def test_disjoint_neighborhoods_estimate_zero_cn(self):
        edges = [(0, 2), (0, 3), (1, 4), (1, 5)]
        predictor = predictor_for(edges)
        assert predictor.score(0, 1, "jaccard") <= 0.05
        # With clamping, CN stays in the feasible range.
        assert 0.0 <= predictor.score(0, 1, "common_neighbors") <= 2.0

    def test_toy_graph_estimates_near_truth(self, toy_oracle):
        predictor = predictor_for(TOY_EDGES)
        for u, v in ((0, 1), (2, 4), (2, 3)):
            estimate = predictor.score(u, v, "jaccard")
            truth = toy_oracle.score(u, v, "jaccard")
            assert estimate == pytest.approx(truth, abs=0.15)

    def test_degree_tracking_exact_mode(self):
        predictor = predictor_for(TOY_EDGES)
        assert predictor.degree(0) == 3
        assert predictor.degree(1) == 2
        assert predictor.degree(999) == 0

    def test_deterministic_in_seed(self):
        a = predictor_for(TOY_EDGES, seed=5)
        b = predictor_for(TOY_EDGES, seed=5)
        assert a.score(0, 1, "adamic_adar") == b.score(0, 1, "adamic_adar")


class TestProtocolConventions:
    def test_cold_vertices_score_zero_for_all_measures(self):
        predictor = predictor_for(TOY_EDGES)
        for measure in (
            "jaccard",
            "common_neighbors",
            "adamic_adar",
            "resource_allocation",
            "cosine",
            "sorensen",
        ):
            assert predictor.score(0, 777, measure) == 0.0

    def test_preferential_attachment_from_degrees(self):
        predictor = predictor_for(TOY_EDGES)
        assert predictor.score(0, 4, "preferential_attachment") == 9.0

    def test_unknown_measure_raises(self):
        predictor = predictor_for(TOY_EDGES)
        with pytest.raises(ConfigurationError):
            predictor.score(0, 1, "simrank")

    def test_self_loop_rejected(self):
        with pytest.raises(ConfigurationError):
            MinHashLinkPredictor().update(4, 4)

    def test_duplicate_edges_idempotent_on_sketches(self):
        once = predictor_for(TOY_EDGES)
        twice = predictor_for(TOY_EDGES + TOY_EDGES)
        # Sketch state identical; only the degree counters differ
        # (documented: use stream dedup for multi-edge streams).
        assert once.sketch(0) == twice.sketch(0)
        assert twice.degree(0) == 2 * once.degree(0)

    def test_witnessless_config_supports_cn_but_not_aa(self):
        predictor = predictor_for(TOY_EDGES, track_witnesses=False)
        assert predictor.score(0, 1, "common_neighbors") >= 0.0
        assert predictor.score(0, 1, "jaccard") >= 0.0
        with pytest.raises(SketchStateError):
            predictor.score(0, 1, "adamic_adar")

    def test_vertex_count(self):
        assert predictor_for(TOY_EDGES).vertex_count == 5


class TestEstimateBundle:
    def test_returns_dataclass_with_all_fields(self):
        predictor = predictor_for(TOY_EDGES)
        estimate = predictor.estimate(0, 1)
        assert isinstance(estimate, PairEstimate)
        assert estimate.u == 0 and estimate.v == 1
        assert estimate.degree_u == 3 and estimate.degree_v == 2
        assert 0.0 <= estimate.jaccard <= 1.0
        assert estimate.common_neighbors <= 2.0  # clamped to min degree
        assert estimate.jaccard_std_error <= 0.5 / math.sqrt(256)
        assert estimate.adamic_adar >= 0.0
        assert estimate.resource_allocation >= 0.0


class TestStatisticalAccuracy:
    def test_aa_estimator_tracks_truth_on_powerlaw_graph(self):
        edges = chung_lu(n=800, edges=6000, exponent=2.3, seed=3)
        oracle = ExactOracle()
        oracle.process(edges)
        predictor = MinHashLinkPredictor(SketchConfig(k=512, seed=3))
        predictor.process(edges)
        # Average signed relative deviation over many pairs ~ 0
        # (unbiasedness); average magnitude bounded.
        from repro.eval.candidates import sample_two_hop_pairs

        pairs = sample_two_hop_pairs(oracle.graph, 150, seed=4)
        deviations = []
        for u, v in pairs:
            truth = oracle.score(u, v, "adamic_adar")
            if truth <= 0:
                continue
            deviations.append(
                (predictor.score(u, v, "adamic_adar") - truth) / truth
            )
        assert abs(statistics.mean(deviations)) < 0.15

    def test_error_decreases_with_k(self):
        edges = chung_lu(n=500, edges=4000, exponent=2.5, seed=6)
        oracle = ExactOracle()
        oracle.process(edges)
        from repro.eval.candidates import sample_two_hop_pairs
        from repro.eval.experiments import accuracy_profile

        pairs = sample_two_hop_pairs(oracle.graph, 120, seed=7)
        errors = {}
        for k in (16, 512):
            predictor = MinHashLinkPredictor(SketchConfig(k=k, seed=8))
            predictor.process(edges)
            errors[k] = accuracy_profile(
                predictor, oracle, pairs, ["jaccard"]
            )["jaccard"]["mre"]
        assert errors[512] < errors[16]


class TestDegreeModes:
    def test_countmin_mode_overestimates_never_under(self):
        predictor = predictor_for(TOY_EDGES, degree_mode="countmin")
        assert predictor.degree(0) >= 3

    def test_countmin_mode_bounded_nominal_bytes(self):
        small = SketchConfig(k=8, degree_mode="countmin", countmin_width=64, countmin_depth=2)
        predictor = MinHashLinkPredictor(small)
        predictor.process(from_pairs(TOY_EDGES))
        # Degree table contributes a fixed 64*2*8 bytes.
        assert predictor.nominal_bytes() == 5 * 8 * 16 + 64 * 2 * 8


class TestAccounting:
    def test_nominal_bytes_exact_mode(self):
        predictor = predictor_for(TOY_EDGES, k=16)
        # 5 vertices * (16 slots * 16 bytes) + 5 degree words.
        assert predictor.nominal_bytes() == 5 * 256 + 5 * 8

    def test_bytes_per_vertex(self):
        predictor = predictor_for(TOY_EDGES, k=16)
        assert predictor.bytes_per_vertex() == pytest.approx(256 + 8)
        assert MinHashLinkPredictor().bytes_per_vertex() == 0.0
