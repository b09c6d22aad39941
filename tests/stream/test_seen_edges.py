"""The guard's seen-edge store behaves exactly like a Python ``set``.

:class:`~repro.stream.seen.SeenEdges` keeps pairs in a pending buffer
and sorted runs that merge geometrically; a tiny buffer makes every
operation sequence cross buffer flushes, run merges and tombstones.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream import seen
from repro.stream.seen import SeenEdges

TOP = 2**63 - 1

# A small pool makes repeats, deletes of present pairs and lookups of
# deleted ones common; ids near 2**63 - 1 exercise the full key range.
ids = st.sampled_from([0, 1, 2, 3, TOP - 1, TOP])
pairs = st.tuples(ids, ids)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), pairs),
        st.tuples(st.just("discard"), pairs),
        st.tuples(st.just("contains"), pairs),
        st.tuples(st.just("add_new_keys"), st.lists(pairs, max_size=8)),
        st.tuples(st.just("contains_many"), st.lists(pairs, max_size=8)),
    ),
    max_size=80,
)


def _store(capacity):
    """A store whose pending buffer holds ``capacity`` entries."""
    with mock.patch.object(seen, "BUFFER_CAPACITY", capacity):
        return SeenEdges()


def _columns(batch):
    return (
        np.array([a for a, _ in batch], dtype=np.int64),
        np.array([b for _, b in batch], dtype=np.int64),
    )


@settings(max_examples=200, deadline=None)
@given(operations, st.integers(1, 5))
def test_store_matches_a_python_set(script, capacity):
    store, reference = _store(capacity), set()
    for operation, argument in script:
        if operation == "add":
            store.add(*argument)
            reference.add(argument)
        elif operation == "discard":
            store.discard(*argument)
            reference.discard(argument)
        elif operation == "contains":
            assert (argument in store) == (argument in reference)
        elif operation == "add_new_keys":
            fresh = sorted(set(argument) - reference)
            firsts, seconds = _columns(fresh)
            store.add_new_keys(SeenEdges.keys(firsts, seconds), firsts)
            reference.update(fresh)
        else:
            expected = [pair in reference for pair in argument]
            assert store.contains_many(*_columns(argument)).tolist() == expected
        assert len(store) == len(reference)
    firsts, seconds = store.pairs()
    assert firsts.dtype == seconds.dtype == np.int64
    assert sorted(zip(firsts.tolist(), seconds.tolist())) == sorted(reference)


def test_a_deleted_pair_in_a_run_is_gone_for_every_probe():
    store = _store(1)
    store.add(1, 2)
    store.add(3, 4)  # the full buffer sorts (1, 2) into a run
    store.discard(1, 2)
    assert (1, 2) not in store
    assert store.contains_many(*_columns([(1, 2), (3, 4)])).tolist() == [False, True]
    store.add(1, 2)
    assert (1, 2) in store and len(store) == 2


def test_colliding_keys_stay_distinct():
    # splitmix64(a) ^ b is one key for many pairs: pick b to force it.
    store = _store(2)
    key = int(SeenEdges.keys(np.array([5]), np.array([9]))[0])
    twins = []
    for a in range(6, 40):
        b = key ^ int(SeenEdges.keys(np.array([a]), np.array([0]))[0])
        if b <= TOP:
            twins.append((a, b))
    assert len(twins) >= 2
    for a, b in [(5, 9)] + twins:
        store.add(a, b)
    for a, b in [(5, 9)] + twins:
        assert (a, b) in store
        assert int(SeenEdges.keys(np.array([a]), np.array([b]))[0]) == key
    store.discard(5, 9)
    assert (5, 9) not in store
    assert all(pair in store for pair in twins)
    assert store.contains_many(*_columns([(5, 9)] + twins)).tolist() == [False] + [True] * len(
        twins
    )


def test_runs_stay_logarithmic():
    store = _store(16)
    rng = np.random.default_rng(3)
    for _ in range(200):
        batch = rng.integers(0, 2**40, size=(8, 2))
        store.add_new_keys(SeenEdges.keys(batch[:, 0], batch[:, 1]), batch[:, 0])
    sizes = [run.live for run in store._runs]
    assert len(store) == sum(sizes) + store._fill
    # Sizes more than halve from oldest to newest run.
    assert all(older > 2 * newer for older, newer in zip(sizes, sizes[1:]))
    # 16 bytes per pair in runs, up to 2 in the filter, plus the buffer.
    assert store.nbytes <= 18 * len(store) + 16 * 16
