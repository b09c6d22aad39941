"""Internal-consistency tests: different code paths that compute the
same mathematical quantity must agree.
"""

from __future__ import annotations

import pytest

from repro.core import MinHashLinkPredictor, SketchConfig
from repro.core.estimators import (
    common_neighbors_from_jaccard,
    union_size_from_jaccard,
    witness_sum_from_matches,
)
from repro.graph import from_pairs
from repro.graph.generators import erdos_renyi


@pytest.fixture(scope="module")
def warm_predictor():
    predictor = MinHashLinkPredictor(SketchConfig(k=64, seed=21))
    predictor.process(erdos_renyi(120, 900, seed=3))
    return predictor


class TestClosedFormVsGenericPath:
    def test_cn_closed_form_equals_unit_weight_ht(self, warm_predictor):
        """The CN closed form and the generic HT path with f=1 are the
        same algebra: union·Ĵ = Ĵ(du+dv)/(1+Ĵ)."""
        predictor = warm_predictor
        for u in range(0, 30, 3):
            for v in range(1, 30, 3):
                if u == v:
                    continue
                su = predictor.sketch(u)
                sv = predictor.sketch(v)
                if su is None or sv is None:
                    continue
                j = su.jaccard(sv)
                du, dv = predictor.degree(u), predictor.degree(v)
                closed = common_neighbors_from_jaccard(j, du, dv)
                union = union_size_from_jaccard(j, du, dv)
                matches = int(su.slot_matches(sv).sum())
                generic = witness_sum_from_matches(
                    union, [2] * matches, lambda d: 1.0, predictor.config.k
                )
                # Clamp the generic value the way the closed form does.
                generic = min(generic, float(min(du, dv)))
                assert generic == pytest.approx(closed, rel=1e-12, abs=1e-12)

    def test_score_jaccard_equals_sketch_jaccard(self, warm_predictor):
        predictor = warm_predictor
        for u, v in ((0, 1), (5, 9), (10, 40)):
            assert predictor.score(u, v, "jaccard") == predictor.jaccard(u, v)

    def test_estimate_bundle_consistent_with_score(self, warm_predictor):
        predictor = warm_predictor
        bundle = predictor.estimate(0, 1)
        assert bundle.jaccard == predictor.score(0, 1, "jaccard")
        assert bundle.adamic_adar == predictor.score(0, 1, "adamic_adar")
        assert bundle.common_neighbors == pytest.approx(
            predictor.score(0, 1, "common_neighbors")
        )

    def test_ratio_measures_consistent_with_cn(self, warm_predictor):
        """cosine = ĈN/sqrt(du·dv) must hold exactly through score()."""
        import math

        predictor = warm_predictor
        for u, v in ((0, 2), (3, 7), (11, 13)):
            du, dv = predictor.degree(u), predictor.degree(v)
            if du == 0 or dv == 0:
                continue
            cn = predictor.score(u, v, "common_neighbors")
            cosine = predictor.score(u, v, "cosine")
            assert cosine == pytest.approx(cn / math.sqrt(du * dv))
