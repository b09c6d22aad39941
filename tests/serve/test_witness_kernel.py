"""Differential and memory pins for the witness-sum branch of the kernel.

The kernel resolves witness degrees per query, for the matched slots of
a chunk only.  These tests hold it byte for byte to the formula it
replaced — a full ``(n, k)`` weight matrix over the store, ``np.where``
over the match matrix, ``sum(axis=1)`` per pair — at every chunk size,
and bound its scratch by the chunk instead of the store.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MinHashLinkPredictor, SketchConfig
from repro.exact.measures import Measure, measure_by_name
from repro.graph import from_pairs
from repro.graph.generators import erdos_renyi
from repro.serve import QueryEngine
from repro.serve.kernels import score_pairs_packed
from repro.serve.packed import PackedSketches
from repro.sketches.minhash import EMPTY_SLOT

#: A witness measure outside the built-in table: the kernel reaches its
#: weight through the ``np.vectorize`` fallback.
INVERSE_SQRT = Measure(
    "inverse_sqrt", "witness_sum", witness_weight=lambda degree: 1.0 / math.sqrt(max(degree, 1))
)
MEASURES = [measure_by_name("adamic_adar"), measure_by_name("resource_allocation"), INVERSE_SQRT]

_REFERENCE_WEIGHTS = {
    "adamic_adar": lambda degrees: 1.0 / np.log(np.maximum(degrees, 2).astype(np.float64)),
    "resource_allocation": lambda degrees: 1.0 / np.maximum(degrees, 1).astype(np.float64),
}


def full_matrix_scores(store, us, vs, measure):
    """The replaced formula: every witness slot of the store resolved to
    a weight up front, then ``np.where`` and ``sum(axis=1)``."""
    weight = _REFERENCE_WEIGHTS.get(measure.name) or np.vectorize(
        measure.witness_weight, otypes=[np.float64]
    )
    all_weights = weight(store.degrees_of(store.witnesses.ravel()).reshape(store.witnesses.shape))
    scores = np.zeros(len(us), dtype=np.float64)
    rows_u, rows_v = store.rows_of(us), store.rows_of(vs)
    seen = np.flatnonzero((rows_u >= 0) & (rows_v >= 0))
    ru, rv = rows_u[seen], rows_v[seen]
    du, dv = store.degrees[ru].astype(np.float64), store.degrees[rv].astype(np.float64)
    live = np.flatnonzero((du > 0) & (dv > 0))
    idx, ru, rv, du, dv = seen[live], ru[live], rv[live], du[live], dv[live]
    values_u, values_v = store.values[ru], store.values[rv]
    matches = (values_u == values_v) & (values_u != EMPTY_SLOT)
    j = matches.sum(axis=1) / np.float64(store.k)
    union = (du + dv) / (1.0 + j)
    weights = np.where(matches, all_weights[ru], 0.0)
    raw = np.maximum(0.0, union * weights.sum(axis=1) / np.float64(store.k))
    scores[idx] = np.minimum(raw, np.minimum(du, dv) * measure.witness_weight(2))
    return scores


def packed_store(edges, k, zero_degree=()):
    """Pack a witness-tracking predictor; ``zero_degree`` vertices keep
    their sketch rows but report degree 0."""
    predictor = MinHashLinkPredictor(SketchConfig(k=k, seed=3, track_witnesses=True))
    predictor.process(from_pairs(edges))
    arrays = predictor.export_arrays()
    degrees = arrays.degrees.copy()
    degrees[np.isin(arrays.vertex_ids, list(zero_degree))] = 0
    return PackedSketches(
        arrays.vertex_ids,
        arrays.values,
        arrays.witnesses,
        degrees,
        arrays.update_counts,
        k=k,
        seed=3,
    )


def chunked(store, us, vs, measure, chunk):
    return np.concatenate(
        [
            score_pairs_packed(store, us[lo : lo + chunk], vs[lo : lo + chunk], measure)
            for lo in range(0, len(us), chunk)
        ]
    )


# A small universe makes shared witnesses the norm; ids up to 14 are
# never endpoints, so pairs also reach unseen vertices.
edge_lists = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(lambda e: e[0] != e[1]),
    min_size=1,
    max_size=60,
)
pair_lists = st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14)), min_size=1, max_size=40)


class TestMatchesFullMatrixFormula:
    @settings(max_examples=60, deadline=None)
    @given(
        edges=edge_lists,
        pairs=pair_lists,
        k=st.sampled_from([2, 8, 32]),
        zero_degree=st.sets(st.integers(0, 11), max_size=3),
        measure=st.sampled_from(MEASURES),
        chunk_fraction=st.floats(0.0, 1.0),
    )
    def test_bytes_equal_at_any_chunk(self, edges, pairs, k, zero_degree, measure, chunk_fraction):
        store = packed_store(edges, k, zero_degree)
        us = np.array([u for u, _ in pairs], dtype=np.int64)
        vs = np.array([v for _, v in pairs], dtype=np.int64)
        chunk = 1 + int(chunk_fraction * (len(pairs) - 1))
        expected = full_matrix_scores(store, us, vs, measure)
        assert chunked(store, us, vs, measure, chunk).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("measure_name", ["adamic_adar", "resource_allocation"])
    @pytest.mark.parametrize("batch_size", [1, 7, 1024, 4096])
    def test_engine_bytes_equal_on_a_random_graph(self, measure_name, batch_size):
        predictor = MinHashLinkPredictor(SketchConfig(k=64, seed=5, track_witnesses=True))
        predictor.process(erdos_renyi(300, 3000, seed=5))
        engine = QueryEngine(predictor, batch_size=batch_size)
        rng = np.random.default_rng(5)
        pairs = rng.integers(0, 320, size=(2500, 2))
        expected = full_matrix_scores(
            engine.store, pairs[:, 0], pairs[:, 1], measure_by_name(measure_name)
        )
        assert np.count_nonzero(expected) > 100
        assert engine.score_many(pairs, measure_name).tobytes() == expected.tobytes()


def _score_many_memory(n, batch_size, k=64, pairs=4096):
    """Traced peak and what stays allocated, beyond the returned
    scores, of a first witness-sum ``score_many`` on a fresh engine."""
    predictor = MinHashLinkPredictor(SketchConfig(k=k, seed=8, track_witnesses=True))
    predictor.process(erdos_renyi(n, 8 * n, seed=8))
    engine = QueryEngine(predictor, batch_size=batch_size)
    rng = np.random.default_rng(8)
    batch = rng.integers(0, n, size=(pairs, 2))
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    scores = engine.score_many(batch, "adamic_adar")
    after, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert np.count_nonzero(scores) > 0
    return peak - before, after - before - scores.nbytes


class TestChunkBoundedScratch:
    def test_nothing_left_on_the_store(self):
        _, left = _score_many_memory(2000, 256)
        assert left <= 16 * 1024

    @pytest.mark.parametrize("batch_size", [256, 1024])
    def test_peak_is_bounded_by_the_chunk_not_the_store(self, batch_size):
        k, pairs = 64, 4096
        small, _ = _score_many_memory(2000, batch_size, k, pairs)
        large, _ = _score_many_memory(4000, batch_size, k, pairs)
        # The output and the pair columns, plus ~32 B per (pair, slot)
        # of one chunk: the uint64 row gather, the match masks, the block.
        bound = 24 * pairs + 32 * batch_size * k
        assert small <= bound and large <= bound
        assert large <= small + 8 * batch_size * k
