"""Tests for the deterministic vertex→shard ownership."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.parallel import owner_of, owner_of_array

vertex_ids = st.one_of(st.integers(0, 50), st.integers(0, 2**63 - 1))


class TestShardOf:
    """:func:`owner_of`: the shard a vertex's sketch row lives in."""

    def test_deterministic_across_calls(self):
        assert owner_of(3, 8, seed=1) == owner_of(3, 8, seed=1)

    def test_stays_in_range(self):
        for shards in (1, 2, 3, 5, 8):
            for vertex in range(50):
                assert 0 <= owner_of(vertex, shards) < shards

    def test_single_shard_owns_everything(self):
        assert owner_of(123, 1) == 0

    def test_seed_changes_the_assignment(self):
        a = [owner_of(vertex, 4, seed=0) for vertex in range(300)]
        b = [owner_of(vertex, 4, seed=1) for vertex in range(300)]
        assert a != b

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ConfigurationError):
            owner_of(1, 0)

    def test_vertices_spread_across_shards(self):
        # Dense ids and strided ids both balance: a `vertex % shards`
        # partition would put every multiple of 4 on shard 0.
        for vertices in (range(2000), range(0, 8000, 4)):
            counts = np.bincount(owner_of_array(list(vertices), 4, seed=0), minlength=4)
            assert counts.min() > 2000 / 4 * 0.8
            assert counts.max() < 2000 / 4 * 1.2


class TestShardOfArray:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(vertex_ids, max_size=40),
        st.integers(1, 9),
        st.integers(0, 2**64 - 1),
    )
    def test_equals_the_scalar_partition_element_by_element(self, vertices, shards, seed):
        owners = owner_of_array(np.array(vertices, dtype=np.int64), shards, seed)
        assert owners.dtype == np.int64
        assert owners.tolist() == [owner_of(vertex, shards, seed) for vertex in vertices]

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ConfigurationError):
            owner_of_array([1], 0)
