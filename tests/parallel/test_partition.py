"""Tests for the deterministic edge→shard hash partition."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.parallel import shard_counts, shard_of, shard_of_array

vertex_ids = st.one_of(st.integers(0, 50), st.integers(0, 2**63 - 1))


class TestShardOf:
    def test_deterministic_across_calls(self):
        assert shard_of(3, 9, 8, seed=1) == shard_of(3, 9, 8, seed=1)

    def test_endpoint_order_is_canonicalised(self):
        for _ in range(200):
            u, v = random.randrange(10_000), random.randrange(10_000)
            assert shard_of(u, v, 7, seed=3) == shard_of(v, u, 7, seed=3)

    def test_stays_in_range(self):
        for shards in (1, 2, 3, 5, 8):
            for u in range(50):
                assert 0 <= shard_of(u, u + 1, shards) < shards

    def test_single_shard_owns_everything(self):
        assert shard_of(123, 456, 1) == 0

    def test_seed_changes_the_assignment(self):
        pairs = [(u, u + 1) for u in range(300)]
        a = [shard_of(u, v, 4, seed=0) for u, v in pairs]
        b = [shard_of(u, v, 4, seed=1) for u, v in pairs]
        assert a != b

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ConfigurationError):
            shard_of(1, 2, 0)

    def test_hub_vertex_spreads_across_shards(self):
        # A star graph must not starve all but one worker: u % shards
        # style partitions would put every edge of vertex 0 on shard 0.
        counts = shard_counts([(0, v) for v in range(1, 2001)], 4, seed=0)
        assert min(counts) > 0
        assert max(counts) < 2000 * 0.5  # roughly balanced, not captured

    def test_shard_counts_total(self):
        edges = [(u, v) for u in range(30) for v in range(u + 1, 30)]
        assert sum(shard_counts(edges, 5)) == len(edges)


class TestShardOfArray:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(vertex_ids, vertex_ids), max_size=40),
        st.integers(1, 9),
        st.integers(0, 2**64 - 1),
    )
    def test_equals_the_scalar_partition_element_by_element(self, edges, shards, seed):
        us = np.array([u for u, _ in edges], dtype=np.int64)
        vs = np.array([v for _, v in edges], dtype=np.int64)
        shards_of = shard_of_array(us, vs, shards, seed)
        assert shards_of.dtype == np.int64
        assert shards_of.tolist() == [shard_of(u, v, shards, seed) for u, v in edges]

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ConfigurationError):
            shard_of_array([1], [2], 0)
