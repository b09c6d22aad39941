"""Regression tests for the scoring edge-case policy.

Every measure in the registry must obey the same contract on both the
per-pair path (``predictor.score``) and the batch path
(``engine.score_many``):

* **unseen vertex** — score 0.0, never a ``KeyError``, even under
  Count-Min degrees (where a colliding counter may claim a positive
  degree for a vertex that never appeared),
* **self-pair** — finite, no division blow-ups,
* **zero-degree pair** — 0.0 for every overlap measure (a degree
  product is trivially 0 there too).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MinHashLinkPredictor, SketchConfig
from repro.exact.measures import MEASURES
from repro.graph import from_pairs
from repro.serve import QueryEngine

ALL_MEASURES = sorted(MEASURES)
EDGES = [(0, 2), (1, 2), (0, 3), (1, 3), (4, 5), (2, 7)]
NEVER_SEEN = 9_999


def warm_predictor(**overrides):
    predictor = MinHashLinkPredictor(SketchConfig(k=32, seed=9, **overrides))
    predictor.process(from_pairs(EDGES))
    return predictor


@pytest.fixture(scope="module")
def predictor():
    return warm_predictor()


@pytest.fixture(scope="module")
def engine(predictor):
    return QueryEngine(predictor)


class TestUnseenVertexPolicy:
    @pytest.mark.parametrize("measure", ALL_MEASURES)
    def test_scalar_path_returns_zero(self, predictor, measure):
        assert predictor.score(NEVER_SEEN, 0, measure) == 0.0
        assert predictor.score(0, NEVER_SEEN, measure) == 0.0
        assert predictor.score(NEVER_SEEN, NEVER_SEEN + 1, measure) == 0.0

    @pytest.mark.parametrize("measure", ALL_MEASURES)
    def test_batch_path_returns_zero(self, engine, measure):
        pairs = [(NEVER_SEEN, 0), (0, NEVER_SEEN), (NEVER_SEEN, NEVER_SEEN + 1)]
        assert np.array_equal(engine.score_many(pairs, measure), [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("measure", ALL_MEASURES)
    def test_countmin_degrees_cannot_resurrect_unseen(self, measure):
        # A tiny Count-Min table guarantees collisions: the tracker may
        # report a positive degree for NEVER_SEEN.  The policy decides
        # on sketch presence first, so the score is still 0.0 — notably
        # for preferential_attachment, which is a pure degree product.
        predictor = warm_predictor(
            degree_mode="countmin", countmin_width=2, countmin_depth=1
        )
        assert predictor.score(NEVER_SEEN, 0, measure) == 0.0
        engine = QueryEngine(predictor)
        assert engine.score(NEVER_SEEN, 0, measure) == 0.0

    def test_estimate_agrees_with_policy(self, predictor):
        # The analytic estimate() surface follows the same policy:
        # unseen pairs report zero everywhere, never a KeyError.
        estimate = predictor.estimate(NEVER_SEEN, 0)
        assert estimate.jaccard == 0.0
        assert estimate.common_neighbors == 0.0
        assert estimate.adamic_adar == 0.0
        assert estimate.degree_u == 0


class TestSelfPairPolicy:
    @pytest.mark.parametrize("measure", ALL_MEASURES)
    def test_scalar_path_is_finite(self, predictor, measure):
        value = predictor.score(2, 2, measure)
        assert np.isfinite(value)
        assert value >= 0.0

    @pytest.mark.parametrize("measure", ALL_MEASURES)
    def test_batch_path_matches_scalar(self, engine, predictor, measure):
        vertices = [0, 2, 4]
        batch = engine.score_many([(v, v) for v in vertices], measure)
        scalar = [predictor.score(v, v, measure) for v in vertices]
        if measure in ("adamic_adar", "resource_allocation"):
            # Python's sequential sum and NumPy's pairwise sum(axis=1)
            # round the witness weights differently (~4e-16 relative).
            np.testing.assert_allclose(batch, scalar, rtol=1e-12, atol=0)
        else:
            assert np.array_equal(batch, scalar)


class TestZeroDegreePolicy:
    @pytest.mark.parametrize("measure", ALL_MEASURES)
    def test_unseen_pairs_have_zero_degree_and_zero_score(self, predictor, measure):
        assert predictor.degree(NEVER_SEEN) == 0
        assert predictor.score(NEVER_SEEN, NEVER_SEEN, measure) == 0.0

    @pytest.mark.parametrize("measure", ALL_MEASURES)
    def test_disconnected_pair_scores_zero_overlap(self, engine, measure):
        # 4 and 7 share no neighbours: overlap and witness measures are
        # exactly 0; the degree product is positive but finite.
        score = float(engine.score_many([(4, 7)], measure)[0])
        if MEASURES[measure].kind == "degree_product":
            assert score > 0.0
        else:
            assert score == 0.0

    @pytest.mark.parametrize("measure", ALL_MEASURES)
    def test_no_nans_anywhere(self, engine, measure):
        rng = np.random.default_rng(7)
        pairs = rng.integers(0, 12, size=(64, 2))
        scores = engine.score_many(pairs, measure)
        assert np.all(np.isfinite(scores))
        assert np.all(scores >= 0.0)
