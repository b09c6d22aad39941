"""Tests for the LSH self-join index."""

from __future__ import annotations

import tracemalloc
from collections import defaultdict

import numpy as np
import pytest

from repro.core import DynamicMinHashPredictor, MinHashLinkPredictor, SketchConfig
from repro.core.lshindex import (
    LshCandidateIndex,
    bands_for_threshold,
    lsh_threshold,
)
from repro.errors import ConfigurationError
from repro.graph import from_pairs
from repro.graph.generators import erdos_renyi
from repro.hashing.mixers import MASK64, splitmix64
from repro.sketches.minhash import EMPTY_SLOT


def _planted_edges():
    """A stream with two planted high-overlap vertex pairs.

    Vertices 0 and 1 share neighbors 100..129 (J = 1.0); vertices 2 and
    3 share 200..219 of their 30 neighbors each (J = 0.5); vertices
    4..23 get disjoint neighborhoods (J ~ 0).  (The shared witnesses
    100..129 themselves form identical {0,1} neighborhoods — tests must
    account for those genuine duplicates.)
    """
    edges = []
    for w in range(100, 130):
        edges.append((0, w))
        edges.append((1, w))
    for w in range(200, 220):
        edges.append((2, w))
        edges.append((3, w))
    for w in range(220, 230):
        edges.append((2, w))
    for w in range(230, 240):
        edges.append((3, w))
    for v in range(4, 24):
        for w in range(1000 + 50 * v, 1000 + 50 * v + 10):
            edges.append((v, w))
    return edges


def planted_predictor(k=128, seed=9):
    predictor = MinHashLinkPredictor(SketchConfig(k=k, seed=seed))
    predictor.process(from_pairs(_planted_edges()))
    return predictor


def planted_arrays(k=128, seed=9):
    return planted_predictor(k=k, seed=seed).export_arrays()


class TestMath:
    def test_threshold_formula(self):
        assert lsh_threshold(16, 8) == pytest.approx((1 / 16) ** (1 / 8))

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            lsh_threshold(0, 4)

    def test_bands_for_threshold_respects_k(self):
        bands, rows = bands_for_threshold(128, 0.5)
        assert bands * rows <= 128
        assert lsh_threshold(bands, rows) == pytest.approx(0.5, abs=0.06)

    def test_bands_for_threshold_extremes(self):
        low_bands, low_rows = bands_for_threshold(64, 0.1)
        high_bands, high_rows = bands_for_threshold(64, 0.9)
        assert lsh_threshold(low_bands, low_rows) < lsh_threshold(
            high_bands, high_rows
        )

    def test_bands_for_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            bands_for_threshold(0, 0.5)
        with pytest.raises(ConfigurationError):
            bands_for_threshold(16, 1.0)

    def test_capture_probability_s_curve(self):
        index = LshCandidateIndex(planted_arrays(), bands=16, rows=8)
        assert index.capture_probability(0.0) == 0.0
        assert index.capture_probability(1.0) == 1.0
        assert index.capture_probability(0.9) > index.capture_probability(0.3)


class TestConstruction:
    def test_shape_must_fit_sketch(self):
        predictor = planted_predictor(k=16)
        with pytest.raises(ConfigurationError):
            LshCandidateIndex(predictor.export_arrays(), bands=8, rows=4)

    def test_parameter_validation(self):
        predictor = planted_predictor(k=16)
        with pytest.raises(ConfigurationError):
            LshCandidateIndex(predictor.export_arrays(), bands=0, rows=4)
        with pytest.raises(ConfigurationError):
            LshCandidateIndex(predictor.export_arrays(), bands=2, rows=4, max_bucket=1)


class TestDiscovery:
    def test_finds_planted_identical_pair(self):
        index = LshCandidateIndex(planted_arrays(), bands=16, rows=8)
        pairs = {(c.u, c.v) for c in index.candidate_pairs(min_jaccard=0.8)}
        assert (0, 1) in pairs

    def test_finds_half_overlap_pair_with_permissive_shape(self):
        # threshold (1/32)^(1/4) ~ 0.42 < 0.5: the J=0.5 pair is caught
        # with probability 1-(1-0.5^4)^32 ~ 0.87 per hash draw; the
        # fixed seed makes the outcome deterministic here.
        index = LshCandidateIndex(planted_arrays(), bands=32, rows=4)
        pairs = {(c.u, c.v) for c in index.candidate_pairs(min_jaccard=0.3)}
        assert (2, 3) in pairs

    def test_high_cutoff_pairs_are_truly_similar(self):
        # Every pair reported above the 0.8 cutoff must be genuinely
        # similar per exact ground truth (estimation noise allowed for
        # with the 0.5 margin).
        from repro.exact import ExactOracle

        oracle = ExactOracle()
        for u, v in _planted_edges():
            oracle.update(u, v)
        index = LshCandidateIndex(planted_arrays(), bands=16, rows=8)
        reported = list(index.candidate_pairs(min_jaccard=0.8))
        assert reported
        for candidate in reported:
            assert oracle.score(candidate.u, candidate.v, "jaccard") >= 0.5

    def test_candidates_deduplicated(self):
        index = LshCandidateIndex(planted_arrays(), bands=16, rows=8)
        pairs = [(c.u, c.v) for c in index.candidate_pairs()]
        assert len(pairs) == len(set(pairs))

    def test_top_pairs_ranked_and_limited(self):
        index = LshCandidateIndex(planted_arrays(), bands=32, rows=4)
        top = index.top_pairs(planted_predictor(), limit=2)
        assert len(top) <= 2
        scores = [score for _, score in top]
        assert scores == sorted(scores, reverse=True)
        assert top[0][0].u == 0 and top[0][0].v == 1  # the J=1 pair wins

    def test_top_pairs_rescoring_by_other_measure(self):
        index = LshCandidateIndex(planted_arrays(), bands=32, rows=4)
        top = index.top_pairs(planted_predictor(), limit=3, measure_name="common_neighbors")
        assert all(score >= 0 for _, score in top)

    def test_top_pairs_validation(self):
        index = LshCandidateIndex(planted_arrays(), bands=16, rows=8)
        with pytest.raises(ConfigurationError):
            index.top_pairs(planted_predictor(), limit=0)

    def test_min_degree_excludes_leaves(self):
        edges = (
            [(0, 1)]
            + [(2, w) for w in range(100, 110)]
            + [(3, w) for w in range(100, 110)]
        )
        predictor = MinHashLinkPredictor(SketchConfig(k=32, seed=1))
        predictor.process(from_pairs(edges))
        index = LshCandidateIndex(predictor.export_arrays(), bands=8, rows=4, min_degree=2)
        pairs = {(c.u, c.v) for c in index.candidate_pairs()}
        assert (2, 3) in pairs  # the degree-10 twins are found
        assert all(0 not in pair and 1 not in pair for pair in pairs)

    def test_overfull_buckets_skipped_and_counted(self):
        # 60 vertices with *identical* neighborhoods collapse into one
        # bucket per band; max_bucket=10 must skip them.
        edges = [(v, w) for v in range(60) for w in range(100, 110)]
        predictor = MinHashLinkPredictor(SketchConfig(k=32, seed=2))
        predictor.process(from_pairs(edges))
        index = LshCandidateIndex(predictor.export_arrays(), bands=8, rows=4, max_bucket=10)
        pairs = list(index.candidate_pairs())
        assert index.skipped_buckets > 0
        clones = [p for p in pairs if p.u < 60 and p.v < 60]
        assert not clones

    def test_deterministic_across_instances(self):
        a = LshCandidateIndex(planted_arrays(), bands=16, rows=8)
        b = LshCandidateIndex(planted_arrays(), bands=16, rows=8)
        assert sorted((c.u, c.v) for c in a.candidate_pairs()) == sorted(
            (c.u, c.v) for c in b.candidate_pairs()
        )
        assert a.bucket_count() == b.bucket_count()


# ----------------------------------------------------------------------
# Differential checks against the scalar reference construction
# ----------------------------------------------------------------------


def reference_signature(values, band, rows):
    """The scalar chained-SplitMix64 band signature the vectorized
    index must reproduce bit for bit."""
    accumulator = band + 1
    for value in values[band * rows : (band + 1) * rows]:
        accumulator = splitmix64((accumulator ^ int(value)) & MASK64)
    return accumulator


def reference_buckets(arrays, bands, rows, min_degree):
    buckets = defaultdict(list)
    for vertex, values, degree in zip(
        arrays.vertex_ids.tolist(), arrays.values, arrays.degrees.tolist()
    ):
        if degree < min_degree:
            continue
        for band in range(bands):
            buckets[(band, reference_signature(values, band, rows))].append(vertex)
    return buckets


def reference_candidates(arrays, buckets, bands, rows, vertex):
    row = np.flatnonzero(arrays.vertex_ids == vertex)
    if len(row) == 0:
        return set()
    values = arrays.values[row[0]]
    found = set()
    for band in range(bands):
        found.update(buckets.get((band, reference_signature(values, band, rows)), ()))
    found.discard(vertex)
    return found


def random_predictor(seed, k=64, n=90, m=500):
    predictor = MinHashLinkPredictor(SketchConfig(k=k, seed=seed))
    predictor.process(erdos_renyi(n, m, seed=seed))
    return predictor


SHAPES = [(64, 1), (16, 4), (8, 8), (10, 3)]  # the last leaves k unused


class TestMatchesScalarReference:
    @pytest.mark.parametrize("bands,rows", SHAPES)
    def test_band_signatures_equal_scalar_chain(self, bands, rows):
        arrays = random_predictor(11).export_arrays()
        index = LshCandidateIndex(arrays, bands=bands, rows=rows)
        signatures = index._signatures(arrays.values)
        assert signatures.shape == (bands, len(arrays.vertex_ids))
        for row in range(0, len(arrays.vertex_ids), 7):
            assert signatures[:, row].tolist() == [
                reference_signature(arrays.values[row], band, rows)
                for band in range(bands)
            ]

    @pytest.mark.parametrize("bands,rows", SHAPES)
    @pytest.mark.parametrize("seed", [3, 17])
    @pytest.mark.parametrize("min_degree", [1, 12])
    def test_candidates_of_equals_reference_union(self, bands, rows, seed, min_degree):
        arrays = random_predictor(seed).export_arrays()
        index = LshCandidateIndex(arrays, bands=bands, rows=rows, min_degree=min_degree)
        buckets = reference_buckets(arrays, bands, rows, min_degree)
        assert index.bucket_count() == len(buckets)
        for vertex in arrays.vertex_ids.tolist():
            found = index.candidates_of(vertex)
            assert found.dtype == np.int64
            assert np.all(np.diff(found) > 0)  # sorted, no duplicates
            assert set(found.tolist()) == reference_candidates(
                arrays, buckets, bands, rows, vertex
            )

    @pytest.mark.parametrize("bands,rows", SHAPES)
    def test_candidate_pairs_equal_reference_self_join(self, bands, rows):
        predictor = random_predictor(5)
        arrays = predictor.export_arrays()
        index = LshCandidateIndex(arrays, bands=bands, rows=rows, max_bucket=4)
        expected, skipped = set(), 0
        for bucket in reference_buckets(arrays, bands, rows, 2).values():
            if len(bucket) > 4:
                skipped += 1
            elif len(bucket) >= 2:
                expected.update(
                    (u, v) for i, u in enumerate(bucket) for v in bucket[i + 1 :]
                )
        reported = list(index.candidate_pairs())
        assert [(c.u, c.v) for c in reported] == sorted(expected)
        assert index.skipped_buckets == skipped
        for candidate in reported:
            assert candidate.jaccard == predictor.jaccard(candidate.u, candidate.v)

    def test_rows_one_candidates_are_exactly_the_slot_sharers(self):
        arrays = random_predictor(7).export_arrays()
        index = LshCandidateIndex(arrays, bands=64, rows=1, min_degree=1)
        filled = arrays.values != EMPTY_SLOT
        for row, vertex in enumerate(arrays.vertex_ids.tolist()):
            shares = np.any((arrays.values == arrays.values[row]) & filled[row], axis=1)
            shares[row] = False
            assert np.array_equal(index.candidates_of(vertex), arrays.vertex_ids[shares])

    def test_vertex_below_min_degree_is_queryable_but_not_indexed(self):
        # 0 and 1 share ten neighbors; 2's only neighbor is one of them,
        # so 2's sketch agrees with theirs wherever 100 is the minimum.
        edges = [(u, w) for u in (0, 1) for w in range(100, 110)] + [(2, 100)]
        predictor = MinHashLinkPredictor(SketchConfig(k=32, seed=4))
        predictor.process(from_pairs(edges))
        index = LshCandidateIndex(
            predictor.export_arrays(), bands=32, rows=1, min_degree=2
        )
        assert predictor.jaccard(0, 2) > 0
        assert index.candidates_of(2).tolist() == [0, 1]
        assert 2 not in index.candidates_of(0).tolist()

    def test_emptied_rows_share_buckets_but_estimate_zero(self):
        # Deleting every edge of 0 and 1 leaves all-EMPTY_SLOT rows; they
        # collide in every band, yet empty slots carry no sample.
        predictor = DynamicMinHashPredictor(SketchConfig(k=8, seed=1, dynamic_mode=True))
        for u, v in [(0, 10), (1, 11), (2, 12), (2, 13)]:
            predictor.update(u, v)
        predictor.delete(0, 10)
        predictor.delete(1, 11)
        index = LshCandidateIndex(predictor.export_arrays(), bands=8, rows=1, min_degree=0)
        reported = {(c.u, c.v): c.jaccard for c in index.candidate_pairs()}
        assert reported[(0, 1)] == 0.0 and reported[(12, 13)] == 1.0
        for (u, v), estimate in reported.items():
            assert estimate == predictor.jaccard(u, v)

    def test_unseen_vertex_and_empty_snapshot(self):
        index = LshCandidateIndex(planted_arrays(), bands=16, rows=8)
        unseen = index.candidates_of(10_000)
        assert unseen.dtype == np.int64 and len(unseen) == 0
        empty = MinHashLinkPredictor(SketchConfig(k=16, seed=1)).export_arrays()
        index = LshCandidateIndex(empty, bands=4, rows=4)
        assert index.bucket_count() == 0
        assert len(index.candidates_of(1)) == 0
        assert list(index.candidate_pairs()) == []

    @pytest.mark.parametrize(
        "bands,rows,max_bucket,min_degree,buckets,skipped",
        [
            (16, 8, 200, 2, 400, 0),
            (128, 1, 2, 2, 3147, 256),
            (64, 1, 10, 1, 2915, 128),
            (10, 3, 5, 1, 468, 239),
        ],
    )
    def test_planted_counts_pinned(self, bands, rows, max_bucket, min_degree, buckets, skipped):
        # Values recorded from the scalar dict-of-lists construction.
        index = LshCandidateIndex(
            planted_arrays(), bands=bands, rows=rows, max_bucket=max_bucket, min_degree=min_degree
        )
        assert index.bucket_count() == buckets
        list(index.candidate_pairs())
        assert index.skipped_buckets == skipped


# ----------------------------------------------------------------------
# Differential checks against the global-sort construction
# ----------------------------------------------------------------------


def global_sort_buckets(arrays, bands, rows, min_degree):
    """Buckets as the index once built them: one stable sort of every
    (band, indexed row) signature, band-major, so equal signatures stay
    in (band, row) order.  ``(signature, band, member rows)`` tuples in
    the index's (signature, band) order."""
    shape = LshCandidateIndex(arrays, bands=bands, rows=rows, min_degree=min_degree)
    indexed = np.flatnonzero(arrays.degrees >= min_degree)
    width = max(len(indexed), 1)
    signatures = shape._signatures(arrays.values[indexed]).ravel()
    order = np.argsort(signatures, kind="stable")
    signatures = signatures[order]
    bands_of = order // width
    new_bucket = np.ones(len(signatures), dtype=bool)
    new_bucket[1:] = (signatures[1:] != signatures[:-1]) | (bands_of[1:] != bands_of[:-1])
    bounds = np.append(np.flatnonzero(new_bucket), len(signatures))
    members = indexed[order % width]
    return [
        (int(signatures[lo]), int(bands_of[lo]), frozenset(members[lo:hi].tolist()))
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())
    ]


def index_buckets(index):
    """The same tuples read from a built index."""
    stretch = max(index._width, 1)
    return [
        (int(signature), start // stretch, frozenset(index._members[start:stop].tolist()))
        for signature, start, stop in zip(
            index._bucket_signatures.tolist(),
            index._bucket_starts.tolist(),
            index._bucket_stops.tolist(),
        )
    ]


class TestMatchesGlobalSortBuild:
    @pytest.mark.parametrize("bands,rows", SHAPES)
    @pytest.mark.parametrize("seed", [3, 17])
    @pytest.mark.parametrize("min_degree", [1, 12])
    def test_buckets_and_candidates(self, bands, rows, seed, min_degree):
        arrays = random_predictor(seed).export_arrays()
        index = LshCandidateIndex(arrays, bands=bands, rows=rows, min_degree=min_degree)
        expected = global_sort_buckets(arrays, bands, rows, min_degree)
        assert index_buckets(index) == expected
        assert index.bucket_count() == len(expected)
        by_key = {(signature, band): rows_ for signature, band, rows_ in expected}
        for row, vertex in enumerate(arrays.vertex_ids.tolist()):
            wanted = index._signatures(arrays.values[row : row + 1])[:, 0].tolist()
            found = set()
            for band, signature in enumerate(wanted):
                found |= by_key.get((signature, band), frozenset())
            found.discard(row)
            assert np.array_equal(
                index.candidates_of(vertex), arrays.vertex_ids[sorted(found)]
            )

    @pytest.mark.parametrize("bands,rows", SHAPES)
    @pytest.mark.parametrize("max_bucket", [2, 4, 200])
    def test_candidate_pairs_and_skips(self, bands, rows, max_bucket):
        arrays = random_predictor(5).export_arrays()
        index = LshCandidateIndex(arrays, bands=bands, rows=rows, max_bucket=max_bucket)
        expected, skipped = set(), 0
        for _, _, members in global_sort_buckets(arrays, bands, rows, 2):
            if len(members) > max_bucket:
                skipped += 1
            elif len(members) >= 2:
                ordered = sorted(members)
                expected.update(
                    (u, v) for i, u in enumerate(ordered) for v in ordered[i + 1 :]
                )
        vertex = arrays.vertex_ids
        pairs = [(c.u, c.v) for c in index.candidate_pairs()]
        assert pairs == [(int(vertex[u]), int(vertex[v])) for u, v in sorted(expected)]
        assert index.skipped_buckets == skipped


class TestBuildMemory:
    @pytest.mark.parametrize("bands,rows", [(64, 1), (16, 4), (10, 3)])
    @pytest.mark.parametrize("n", [1500, 3000])
    def test_build_holds_the_index_and_per_band_scratch(self, bands, rows, n):
        predictor = MinHashLinkPredictor(SketchConfig(k=64, seed=3))
        predictor.process(erdos_renyi(n, 4 * n, seed=3))
        arrays = predictor.export_arrays()
        indexed = int(np.count_nonzero(arrays.degrees >= 1))
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        index = LshCandidateIndex(arrays, bands=bands, rows=rows, min_degree=1)
        after, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        held = after - before
        # 16 KiB covers the Python objects around the arrays.
        assert held <= 4 * bands * indexed + 24 * index.bucket_count() + 16384
        assert index.nbytes() <= held <= index.nbytes() + 16384
        # One band's hashing and sorting at a time: a bound in n alone.
        assert peak - before <= held + 128 * len(arrays.vertex_ids)
