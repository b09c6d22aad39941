"""Property pins for the growable sketch store.

New vertices append rows and the capacity doubles when it fills.  The
law: however scalar ``update`` and block ``update_block`` calls
interleave, and wherever a capacity doubling falls — between calls or
inside one batch — ``export_arrays()`` equals the all-scalar
predictor's field for field, witnesses and update counts included.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MinHashLinkPredictor, SketchConfig
from repro.core.predictor import SketchArrays

edges = st.lists(
    st.tuples(st.integers(0, 60), st.integers(0, 60)).filter(lambda p: p[0] != p[1]),
    max_size=40,
)
calls = st.lists(st.tuples(st.sampled_from(["scalar", "block"]), edges), max_size=8)


def _assert_same_export(scalar, mixed):
    for field, a, b in zip(SketchArrays._fields, scalar.export_arrays(), mixed.export_arrays()):
        if a is None or b is None:
            assert a is None and b is None, field
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b), field


def _replay(config, history):
    scalar = MinHashLinkPredictor(config)
    mixed = MinHashLinkPredictor(config)
    for kind, batch in history:
        for u, v in batch:
            scalar.update(u, v)
        if kind == "block":
            mixed.update_block([u for u, _ in batch], [v for _, v in batch])
        else:
            for u, v in batch:
                mixed.update(u, v)
    return scalar, mixed


class TestStoreGrowth:
    @settings(max_examples=80, deadline=None)
    @given(calls, st.sampled_from([2, 5]), st.booleans())
    def test_interleaved_calls_export_like_scalar(self, history, k, track):
        config = SketchConfig(k=k, seed=11, track_witnesses=track)
        _assert_same_export(*_replay(config, history))

    @settings(max_examples=40, deadline=None)
    @given(edges, st.integers(3, 30))
    def test_a_doubling_inside_one_batch(self, batch, first_new):
        # Three scalar vertices leave the capacity at 4; the batch then
        # brings up to 30 new vertices in one call.
        prefix = [("scalar", [(100, 101), (101, 102)])]
        fresh = [(u + 200, v + 200) for u, v in batch] + [(200, 200 + first_new)]
        history = prefix + [("block", fresh + batch)]
        scalar, mixed = _replay(SketchConfig(k=4, seed=5), history)
        _assert_same_export(scalar, mixed)
        assert mixed.vertex_count > 4
