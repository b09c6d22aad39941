"""Property tests for the merge algebra behind sharded ingestion.

Parallel ingestion is correct *iff* every summary it shards over forms
a commutative monoid under ``merge`` whose fold over any partition of a
stream equals the serial summary.  These tests pin that algebra for
each mergeable sketch (k-mins MinHash, bottom-k, HyperLogLog, Bloom,
non-conservative Count-Min) and for the full predictor, plus the
designed *failure* of the algebra: conservative Count-Min is not
linear, and every layer must refuse to merge it rather than silently
corrupt counts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MinHashLinkPredictor, SketchConfig
from repro.core.predictor import merge_shards
from repro.errors import ConfigurationError
from repro.hashing import HashBank
from repro.sketches import BloomFilter, BottomK, CountMin, HyperLogLog, KMinHash

# Keys tagged with a shard in [0, 4]: one drawn list defines both the
# serial stream (tags ignored) and its partition into up to 5 shards.
sharded_keys = st.lists(
    st.tuples(st.integers(0, 5_000), st.integers(0, 4)), max_size=80
)

sharded_edges = st.lists(
    st.tuples(st.integers(0, 25), st.integers(0, 25), st.integers(0, 4)).filter(
        lambda t: t[0] != t[1]
    ),
    max_size=80,
)


def _fresh(factory_name: str):
    if factory_name == "kminhash":
        return KMinHash(HashBank(7, 16))
    if factory_name == "bottomk":
        return BottomK(k=16, seed=7)
    if factory_name == "hll":
        return HyperLogLog(precision=6, seed=7)
    if factory_name == "bloom":
        return BloomFilter(bits=256, hashes=3, seed=7)
    if factory_name == "countmin":
        return CountMin(width=64, depth=3, seed=7, conservative=False)
    raise AssertionError(factory_name)


def _state(sketch):
    """Comparable full state per sketch kind."""
    if isinstance(sketch, KMinHash):
        return (sketch.values.tolist(), sketch.witnesses.tolist(), sketch.update_count)
    if isinstance(sketch, BottomK):
        return sorted(sketch.values())
    if isinstance(sketch, HyperLogLog):
        return sketch.registers.tolist()
    if isinstance(sketch, BloomFilter):
        return (sketch._array.tolist(), sketch.insertions)
    if isinstance(sketch, CountMin):
        return (sketch.table.tolist(), sketch.total)
    raise AssertionError(type(sketch))


SKETCH_KINDS = ["kminhash", "bottomk", "hll", "bloom", "countmin"]


@pytest.mark.parametrize("kind", SKETCH_KINDS)
class TestMergeIsAPartitionFold:
    @settings(max_examples=40)
    @given(tagged=sharded_keys)
    def test_any_partition_merges_to_the_serial_sketch(self, kind, tagged):
        serial = _fresh(kind)
        shards = [_fresh(kind) for _ in range(5)]
        for key, shard in tagged:
            serial.update(key)
            shards[shard].update(key)
        merged = shards[0]
        for shard in shards[1:]:
            merged = merged.merge(shard)
        assert _state(merged) == _state(serial)

    @settings(max_examples=25)
    @given(tagged=sharded_keys)
    def test_merge_is_commutative(self, kind, tagged):
        a, b = _fresh(kind), _fresh(kind)
        for key, shard in tagged:
            (a if shard % 2 else b).update(key)
        assert _state(a.merge(b)) == _state(b.merge(a))

    @settings(max_examples=25)
    @given(tagged=sharded_keys)
    def test_merge_is_associative(self, kind, tagged):
        a, b, c = _fresh(kind), _fresh(kind), _fresh(kind)
        for key, shard in tagged:
            (a, b, c)[shard % 3].update(key)
        assert _state(a.merge(b).merge(c)) == _state(a.merge(b.merge(c)))

    @settings(max_examples=25)
    @given(tagged=sharded_keys)
    def test_update_order_is_irrelevant(self, kind, tagged):
        forward, backward = _fresh(kind), _fresh(kind)
        for key, _ in tagged:
            forward.update(key)
        for key, _ in reversed(tagged):
            backward.update(key)
        assert _state(forward) == _state(backward)


class TestPredictorPartitionFold:
    @settings(max_examples=25, deadline=None)
    @given(tagged=sharded_edges)
    def test_random_partition_merges_bit_identical_to_serial(self, tagged):
        config = SketchConfig(k=16, seed=3, degree_mode="exact")
        serial = MinHashLinkPredictor(config)
        shards = [MinHashLinkPredictor(config) for _ in range(5)]
        for u, v, shard in tagged:
            serial.update(u, v)
            shards[shard].update(u, v)
        merged = merge_shards(shards)
        ours, theirs = merged.export_arrays(), serial.export_arrays()
        for name in ("vertex_ids", "values", "witnesses", "update_counts", "degrees"):
            assert np.array_equal(getattr(ours, name), getattr(theirs, name)), name
        assert merged.nominal_bytes() == serial.nominal_bytes()


class TestConservativeCountMinRefusesToMerge:
    """The one summary that is *not* a monoid must fail loudly everywhere."""

    def test_sketch_merge_raises(self):
        a = CountMin(width=32, depth=2, seed=1, conservative=True)
        b = CountMin(width=32, depth=2, seed=1, conservative=True)
        a.update(4)
        b.update(4)
        with pytest.raises(ConfigurationError):
            a.merge(b)

    def test_config_require_mergeable_raises(self):
        with pytest.raises(ConfigurationError, match="exact"):
            SketchConfig(k=8, degree_mode="countmin").require_mergeable()
        SketchConfig(k=8, degree_mode="exact").require_mergeable()  # no raise

    def test_predictor_merge_raises_for_countmin_degrees(self):
        config = SketchConfig(k=8, degree_mode="countmin")
        a, b = MinHashLinkPredictor(config), MinHashLinkPredictor(config)
        a.update(1, 2)
        b.update(2, 3)
        with pytest.raises(ConfigurationError):
            a.merge(b)

    def test_merge_shards_needs_at_least_one(self):
        with pytest.raises(ConfigurationError):
            merge_shards([])
