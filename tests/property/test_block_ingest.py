"""Property-based bit-identity pins for the block-ingest kernel.

The entire value of :mod:`repro.core.block` rests on one law:

    ``predictor.update_block(us, vs)`` leaves *exactly* the state that
    ``for u, v in zip(us, vs): predictor.update(u, v)`` would have —
    sketch values, witnesses, update counts, and degrees, bit for bit.

Hypothesis drives the adversarial corners the scalar semantics make
subtle: duplicate edges inside one batch (idempotent slots, counted
arrivals), hash ties at tiny ``k`` over tiny key universes (the
earliest-arrival witness rule), batches straddling seen and unseen
vertices, pre-seeded predictors (equal batch minima must *not* steal
the pre-batch witness), empty batches, both degree modes, and any slab
size (hub segments longer than a slab, slabs ending on a segment
boundary).  With a ``sides`` column the same law holds for the chosen
arrivals only: a shard worker's one-sided fold equals the scalar loop
restricted to the arrivals it owns.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DynamicMinHashPredictor, MinHashLinkPredictor, SketchConfig
from repro.core import block as block_module
from repro.errors import ConfigurationError
from repro.hashing import HashBank

# Tiny vertex universe: duplicates and shared endpoints are the norm,
# and at k=2..4 equal slot minima across keys actually happen.
edge_batches = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(lambda p: p[0] != p[1]),
    max_size=50,
)


def _state(predictor):
    """Every bit of predictor state the scalar law quantifies over."""
    sketches = {
        field: None if array is None else (array.shape, array.tobytes())
        for field, array in predictor.export_arrays()._asdict().items()
    }
    degrees = {v: predictor.degree(v) for v in range(12)}
    return sketches, degrees


def _pair(config, prefix, batch):
    """Two predictors with identical scalar history; one then takes the
    batch scalar, the other through the kernel."""
    scalar = MinHashLinkPredictor(config)
    block = MinHashLinkPredictor(config)
    for u, v in prefix:
        scalar.update(u, v)
        block.update(u, v)
    for u, v in batch:
        scalar.update(u, v)
    applied = block.update_block(
        [u for u, _ in batch], [v for _, v in batch]
    )
    assert applied == len(batch)
    return scalar, block


class TestBlockEqualsSequential:
    @settings(max_examples=60, deadline=None)
    @given(edge_batches, edge_batches, st.sampled_from([2, 3, 16]))
    def test_fresh_and_preseeded(self, prefix, batch, k):
        scalar, block = _pair(SketchConfig(k=k, seed=3), prefix, batch)
        assert _state(scalar) == _state(block)

    @settings(max_examples=40, deadline=None)
    @given(edge_batches, st.integers(0, 2**31 - 1))
    def test_seed_invariance(self, batch, seed):
        scalar, block = _pair(SketchConfig(k=4, seed=seed), [], batch)
        assert _state(scalar) == _state(block)

    @settings(max_examples=40, deadline=None)
    @given(edge_batches, edge_batches)
    def test_without_witness_tracking(self, prefix, batch):
        config = SketchConfig(k=3, seed=7, track_witnesses=False)
        scalar, block = _pair(config, prefix, batch)
        assert _state(scalar) == _state(block)

    @settings(max_examples=30, deadline=None)
    @given(edge_batches, edge_batches)
    def test_countmin_degree_mode(self, prefix, batch):
        config = SketchConfig(k=3, seed=5, degree_mode="countmin")
        scalar, block = _pair(config, prefix, batch)
        assert _state(scalar) == _state(block)

    @settings(max_examples=30, deadline=None)
    @given(edge_batches, st.lists(st.integers(1, 7), min_size=1, max_size=4))
    def test_any_batch_split_is_equivalent(self, batch, splits):
        """Chopping one stream into arbitrary update_block spans cannot
        change the result (the StreamRunner/worker batching law)."""
        whole, chopped = _pair(SketchConfig(k=3, seed=11), [], batch)
        resplit = MinHashLinkPredictor(SketchConfig(k=3, seed=11))
        position = 0
        while position < len(batch):
            size = splits[position % len(splits)]
            span = batch[position : position + size]
            resplit.update_block([u for u, _ in span], [v for _, v in span])
            position += size
        assert _state(whole) == _state(resplit)

    def test_empty_batch_is_a_noop(self):
        predictor = MinHashLinkPredictor(SketchConfig(k=4, seed=1))
        predictor.update(1, 2)
        before = _state(predictor)
        assert predictor.update_block([], []) == 0
        assert predictor.update_block(np.array([]), np.array([])) == 0
        assert _state(predictor) == before


class TestBatchRejection:
    """A rejected batch must leave the predictor untouched."""

    @pytest.mark.parametrize(
        "us, vs",
        [
            ([1, -2, 3], [4, 5, 6]),  # negative id mid-batch
            ([1, 2], [4, 2]),  # self-loop mid-batch
            ([1, 2, 3], [4, 5]),  # length mismatch
            ([[1, 2]], [[3, 4]]),  # wrong rank
            (["a", "b"], [1, 2]),  # non-integer
        ],
    )
    def test_rejects_before_any_mutation(self, us, vs):
        predictor = MinHashLinkPredictor(SketchConfig(k=4, seed=2))
        predictor.update(1, 4)
        before = _state(predictor)
        with pytest.raises(ConfigurationError):
            predictor.update_block(us, vs)
        assert _state(predictor) == before

    def test_error_names_first_offending_index(self):
        predictor = MinHashLinkPredictor(SketchConfig(k=4, seed=2))
        with pytest.raises(ConfigurationError, match="batch index 1"):
            predictor.update_block([1, 2, 3], [4, -1, -6])


class TestValuesBlock:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 2**63 - 1), max_size=30),
        st.integers(0, 2**31 - 1),
        st.sampled_from([1, 3, 17]),
    )
    def test_matches_per_key_values(self, keys, seed, k):
        bank = HashBank(seed, k)
        block = bank.values_block(np.array(keys, dtype=np.uint64))
        assert block.shape == (len(keys), k)
        for row, key in enumerate(keys):
            assert np.array_equal(block[row], bank.values(key))

    def test_negative_keys_wrap(self):
        bank = HashBank(9, 5)
        wrapped = bank.values_block(np.array([-1, -2], dtype=np.int64))
        direct = bank.values_block(
            np.array([2**64 - 1, 2**64 - 2], dtype=np.uint64)
        )
        assert np.array_equal(wrapped, direct)

    def test_rejects_non_1d(self):
        with pytest.raises(ConfigurationError):
            HashBank(0, 2).values_block(np.zeros((2, 2), dtype=np.uint64))


# A hub (vertex 0) with many spokes beside the small random batch: its
# segment of (row, key) pairs runs past any small slab.
hub_batches = st.tuples(
    edge_batches,
    st.lists(st.integers(1, 40), max_size=40),
).map(lambda parts: parts[0] + [(0, spoke) for spoke in parts[1]])


class TestSlabbing:
    """The kernel reduces its pairs slab by slab; the slab size must not
    show in the result.  Shrinking ``SLAB_PAIRS`` puts hub segments
    longer than a slab and slab ends on segment boundaries into every
    example."""

    @settings(max_examples=60, deadline=None)
    @given(edge_batches, hub_batches, st.sampled_from([1, 2, 3, 5, 8, 64]), st.booleans())
    def test_any_slab_size_equals_the_scalar_loop(self, prefix, batch, slab, track):
        config = SketchConfig(k=3, seed=9, track_witnesses=track)
        with mock.patch.object(block_module, "SLAB_PAIRS", slab):
            scalar, block = _pair(config, prefix, batch)
        assert _state(scalar) == _state(block)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 12), min_size=1, max_size=30), st.integers(1, 16))
    def test_slabs_are_whole_segments_packed_greedily(self, lengths, slab):
        bounds = np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)])
        with mock.patch.object(block_module, "SLAB_PAIRS", slab):
            slabs = list(block_module._slabs(bounds))
        assert [lo for lo, _ in slabs] == [0] + [hi for _, hi in slabs[:-1]]
        assert slabs[-1][1] == len(lengths)
        for lo, hi in slabs:
            pairs = bounds[hi] - bounds[lo]
            assert pairs <= slab or hi == lo + 1  # a long segment is a slab alone
            if hi < len(lengths):
                assert bounds[hi + 1] - bounds[lo] > slab  # the next segment did not fit

    @pytest.mark.parametrize("track", [True, False])
    def test_real_slab_size_with_a_hub_and_an_exact_boundary(self, track):
        """At the shipped ``SLAB_PAIRS`` (1024): vertex 0's 1000 spokes
        plus vertex 1's 24 fill the first slab exactly, and vertex 2's
        2500 spokes make a segment longer than two slabs."""
        assert block_module.SLAB_PAIRS == 1024
        batch = [(0, 10 + i) for i in range(1000)]
        batch += [(1, 10 + i) for i in range(24)]
        batch += [(2, 5000 + i) for i in range(2500)]
        batch += [(10 + i, 11 + i) for i in range(300)]
        order = np.random.default_rng(3).permutation(len(batch))
        batch = [batch[i] for i in order]
        config = SketchConfig(k=8, seed=4, track_witnesses=track)
        scalar, block = _pair(config, [(0, 1), (3, 10)], batch)
        assert _state(scalar) == _state(block)


def _one_sided_reference(predictor, batch, sides, timestamps=None, delete=False):
    """The scalar loop restricted to the chosen arrivals: for each edge,
    ``sketch(u) <- v`` if its ``U_SIDE`` bit is set, then ``sketch(v)
    <- u`` if its ``V_SIDE`` bit is, each exactly as ``update`` (or a
    dynamic ``update``/``delete``) applies it."""
    dynamic = isinstance(predictor, DynamicMinHashPredictor)
    for index, ((u, v), side) in enumerate(zip(batch, sides)):
        stamp = 0.0 if timestamps is None else timestamps[index]
        for target, key, bit in ((u, v, block_module.U_SIDE), (v, u, block_module.V_SIDE)):
            if not side & bit:
                continue
            if dynamic:
                sketch = predictor._sketch_of(target)
                (sketch.remove if delete else sketch.add)(key, stamp)
            else:
                predictor._insert(predictor._row_of(target), key, predictor.bank.values(key))
                predictor._degrees.increment(target)
        if dynamic:
            predictor._observe_time(stamp)


def _dynamic_state(predictor):
    return [
        np.asarray(column).tobytes() for column in predictor.export_dynamic_arrays()
    ], _state(predictor)


sided_batches = edge_batches.flatmap(
    lambda batch: st.tuples(
        st.just(batch),
        st.lists(st.integers(1, 3), min_size=len(batch), max_size=len(batch)),
    )
)


class TestChosenArrivals:
    """``update_block(us, vs, sides)`` applies only the arrivals a shard
    owns — bit-identical to the scalar loop over just those arrivals."""

    @settings(max_examples=80, deadline=None)
    @given(
        edge_batches,
        sided_batches,
        st.sampled_from([2, 4, 16]),
        st.booleans(),
        st.sampled_from(["exact", "countmin"]),
    )
    def test_append_equals_the_one_sided_scalar_loop(self, prefix, sided, k, track, degrees):
        batch, sides = sided
        config = SketchConfig(k=k, seed=6, track_witnesses=track, degree_mode=degrees)
        scalar, block = MinHashLinkPredictor(config), MinHashLinkPredictor(config)
        for predictor in (scalar, block):
            predictor.update_block([u for u, _ in prefix], [v for _, v in prefix])
        _one_sided_reference(scalar, batch, sides)
        applied = block.update_block(
            [u for u, _ in batch], [v for _, v in batch], np.array(sides, dtype=np.uint8)
        )
        assert applied == len(batch)
        assert _state(scalar) == _state(block)

    @settings(max_examples=60, deadline=None)
    @given(edge_batches, sided_batches, st.booleans(), st.integers(0, 2**16))
    def test_dynamic_equals_the_one_sided_scalar_loop(self, prefix, sided, delete, seed):
        batch, sides = sided
        config = SketchConfig(k=8, seed=seed, dynamic_mode=True)
        stamps = [float((seed + index) % 7) for index in range(len(batch))]
        scalar, block = DynamicMinHashPredictor(config), DynamicMinHashPredictor(config)
        for predictor in (scalar, block):
            predictor.update_block([u for u, _ in prefix], [v for _, v in prefix])
        _one_sided_reference(scalar, batch, sides, stamps, delete)
        fold = block.delete_block if delete else block.update_block
        fold([u for u, _ in batch], [v for _, v in batch], stamps, np.array(sides, dtype=np.uint8))
        assert _dynamic_state(scalar) == _dynamic_state(block)

    def test_full_sides_equal_the_plain_batch(self):
        batch = [(0, 1), (1, 2), (2, 0), (0, 1), (3, 4)]
        us, vs = [u for u, _ in batch], [v for _, v in batch]
        plain, sided = MinHashLinkPredictor(SketchConfig(k=4)), MinHashLinkPredictor(SketchConfig(k=4))
        plain.update_block(us, vs)
        sided.update_block(us, vs, np.full(len(batch), 3, dtype=np.uint8))
        assert _state(plain) == _state(sided)

    @pytest.mark.parametrize("sides", [[1, 0], [1, 4], [1], [[1, 1]]])
    def test_rejects_bad_sides_before_any_mutation(self, sides):
        predictor = MinHashLinkPredictor(SketchConfig(k=4))
        with pytest.raises(ConfigurationError):
            predictor.update_block([0, 1], [1, 2], np.array(sides))
        assert predictor.vertex_count == 0
