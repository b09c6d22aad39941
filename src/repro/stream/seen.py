"""The guard's seen-edge store: a set of vertex pairs in sorted columns.

:class:`SeenEdges` answers "was this edge accepted before?" for the
:class:`~repro.stream.policies.StreamGuard` without one Python object
per edge.  A pair ``(a, b)`` of ids in ``[0, 2**63)`` is stored as two
words: its *key* ``mix(a) ^ b`` (``uint64``, ``mix(a)`` the low 64 bits
of ``a`` times an odd constant) and ``a`` itself (``int64``).  Given
``a`` the map is a bijection — ``b = key ^ mix(a)`` — so the two words
hold the pair exactly, in 16 bytes.

The words live in an LSM layout:

* a **pending buffer** of fixed capacity, unsorted, where single adds
  land (a scalar probe scans it with one vectorized compare);
* **sorted runs**, ordered by key.  A full buffer becomes a run, and
  the two newest runs merge while the older one is at most twice the
  size of the newer, so the run sizes at least halve from oldest to
  newest: ``n`` adds cost ``O(n log n)`` in all, and one probe binary
  searches ``O(log n)`` runs.

Keys of distinct pairs may collide (two pairs, one key); every lookup
compares ``a`` too and walks the whole run of equal keys, so membership
is exact.  A delete marks its entry dead in a per-run tombstone mask,
allocated on a run's first delete; merges drop dead entries.

A single probe (the scalar judge asks one edge at a time) first tests
a bit filter that sets two bits per pair and holds 8 to 16 bits per
pair: a pair it never saw is answered absent, most of the time,
without touching the runs.  Bulk adds reach the filter when the buffer
is flushed; until then a probe compares them directly.  Deletes clear no bits, so a deleted pair
costs a full probe until the filter is next rebuilt, at a doubling of
the store.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.hashing.mixers import GOLDEN_GAMMA, MASK64

__all__ = ["SeenEdges"]

#: Entries the pending buffer holds before it is sorted into a run.
BUFFER_CAPACITY = 4096

#: Filter bits per stored pair, at least (two probe bits per pair give
#: ~5% false positives at 8 bits).
FILTER_BITS = 8

#: Odd multipliers whose products' top bits place a key's two filter
#: bits (multiplicative hashing).
_FILTER_A, _FILTER_B = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_MIX = np.uint64(GOLDEN_GAMMA)


def _key(first: int, second: int) -> int:
    """The key of one pair: ``mix(first) ^ second``."""
    return (first * GOLDEN_GAMMA & MASK64) ^ second


def _as_ids(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.int64)


class _Run:
    """One sorted run: keys ascending, ``firsts`` alongside, and a
    tombstone mask once any entry was deleted."""

    __slots__ = ("keys", "firsts", "dead", "live")

    def __init__(self, keys: np.ndarray, firsts: np.ndarray) -> None:
        self.keys = keys
        self.firsts = firsts
        self.dead: Optional[np.ndarray] = None
        self.live = len(keys)

    def find(self, key: int, first: int) -> int:
        """Index of the live entry holding ``(key, first)``, or -1."""
        keys = self.keys
        index = int(keys.searchsorted(np.uint64(key)))
        while index < len(keys) and int(keys[index]) == key:
            if int(self.firsts[index]) == first and (
                self.dead is None or not self.dead[index]
            ):
                return index
            index += 1
        return -1

    def lookup(self, keys: np.ndarray, firsts: np.ndarray, hit: np.ndarray) -> None:
        """Set ``hit`` where ``(keys, firsts)`` is a live entry of this run."""
        size = len(self.keys)
        if not size:
            return
        index = self.keys.searchsorted(keys)
        probe = np.minimum(index, size - 1)
        same_key = (index < size) & (self.keys[probe] == keys)
        found = same_key & (self.firsts[probe] == firsts)
        if self.dead is not None:
            found &= ~self.dead[probe]
        hit |= found
        # A different pair, or a dead one, under the same key: the live
        # entry may sit further along the run of equal keys (rare).
        for query in np.flatnonzero(same_key & ~found).tolist():
            if self.find(int(keys[query]), int(firsts[query])) >= 0:
                hit[query] = True

    def live_entries(self) -> Tuple[np.ndarray, np.ndarray]:
        if self.dead is None:
            return self.keys, self.firsts
        keep = ~self.dead
        return self.keys[keep], self.firsts[keep]


class SeenEdges:
    """A set of ``(a, b)`` id pairs, ``0 <= a, b < 2**63``, kept columnar.

    Behaves like a Python ``set`` of pairs — :meth:`add`,
    :meth:`discard`, ``in``, ``len`` — plus bulk forms over ``int64``
    arrays (:meth:`contains_many`, and :meth:`add_new_keys` for pairs
    known to be new).
    The guard canonicalises pairs (``a <= b``); the store does not care.
    """

    def __init__(self) -> None:
        self._runs: List[_Run] = []
        self._capacity = BUFFER_CAPACITY
        self._buffer_keys = np.empty(self._capacity, dtype=np.uint64)
        self._buffer_firsts = np.empty(self._capacity, dtype=np.int64)
        self._fill = 0
        self._marked = 0  # buffer entries before this one are in the filter
        self._size = 0
        self._clear_filter(BUFFER_CAPACITY * FILTER_BITS)

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------

    @staticmethod
    def keys(firsts: np.ndarray, seconds: np.ndarray) -> np.ndarray:
        """The ``uint64`` keys of pairs given as two ``int64`` arrays."""
        return (firsts.astype(np.uint64) * _MIX) ^ seconds.astype(np.uint64)

    # ------------------------------------------------------------------
    # Set protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, pair: Tuple[int, int]) -> bool:
        first, second = pair
        return self._find(_key(first, second), first) is not None

    def add(self, first: int, second: int) -> None:
        if (first, second) not in self:
            self.add_new(first, second)

    def discard(self, first: int, second: int) -> None:
        found = self._find(_key(first, second), first)
        if found is None:
            return
        run, index = found
        if run is None:  # the buffer: move its last entry into the gap
            last = self._fill - 1
            self._buffer_keys[index] = self._buffer_keys[last]
            self._buffer_firsts[index] = self._buffer_firsts[last]
            self._fill = last
            if index < self._marked:  # the moved entry may be unmarked
                self._mark_filter(self._buffer_keys[index : index + 1])
            self._marked = min(self._marked, last)
        else:
            if run.dead is None:
                run.dead = np.zeros(len(run.keys), dtype=bool)
            run.dead[index] = True
            run.live -= 1
        self._size -= 1

    def clear(self) -> None:
        self._runs = []
        self._fill = self._marked = 0
        self._size = 0
        self._clear_filter(BUFFER_CAPACITY * FILTER_BITS)

    def contains_many(self, firsts, seconds) -> np.ndarray:
        """Membership of each pair of two parallel id arrays."""
        firsts = _as_ids(firsts)
        return self.contains_keys(self.keys(firsts, _as_ids(seconds)), firsts)

    def pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every pair, as ``(firsts, seconds)`` ``int64`` arrays."""
        parts = [run.live_entries() for run in self._runs]
        parts.append((self._buffer_keys[: self._fill], self._buffer_firsts[: self._fill]))
        keys = np.concatenate([keys for keys, _ in parts])
        firsts = np.concatenate([firsts for _, firsts in parts])
        seconds = (keys ^ (firsts.astype(np.uint64) * _MIX)).astype(np.int64)
        return firsts, seconds

    @property
    def nbytes(self) -> int:
        """Bytes held by the store's arrays (buffer included)."""
        held = self._buffer_keys.nbytes + self._buffer_firsts.nbytes + len(self._filter)
        for run in self._runs:
            held += run.keys.nbytes + run.firsts.nbytes
            if run.dead is not None:
                held += run.dead.nbytes
        return held

    # ------------------------------------------------------------------
    # Key-level access for the guard's bulk judge
    # ------------------------------------------------------------------

    def contains_keys(self, keys: np.ndarray, firsts: np.ndarray) -> np.ndarray:
        """Membership of pairs given by their keys and first ids (fastest
        when ``keys`` is sorted).  The buffer is sealed into a run first,
        so the probe searches sorted runs only."""
        self._flush()
        hit = np.zeros(len(keys), dtype=bool)
        for run in self._runs:
            run.lookup(keys, firsts, hit)
        return hit

    def add_new(self, first: int, second: int) -> None:
        """Add one pair the caller knows is absent."""
        if self._fill == self._capacity:
            self._flush()
        key = _key(first, second)
        self._buffer_keys[self._fill] = key
        self._buffer_firsts[self._fill] = first
        if self._marked == self._fill:  # no unmarked entries before it
            filter_, shift = self._filter, self._filter_shift
            for multiplier in (_FILTER_A, _FILTER_B):
                bit = (key * multiplier & MASK64) >> shift
                filter_[bit >> 3] |= 1 << (bit & 7)
            self._marked += 1
        self._fill += 1
        self._size += 1
        self._grow_filter()

    def add_new_keys(self, keys: np.ndarray, firsts: np.ndarray) -> None:
        """Add pairs, by key and first id, that the caller knows are
        distinct and absent."""
        count = len(keys)
        if self._fill + count > self._capacity:
            self._flush()
        if count >= self._capacity:
            self._mark_filter(keys)
            self._push(keys, firsts)
        else:  # the filter learns them at the next flush
            self._buffer_keys[self._fill : self._fill + count] = keys
            self._buffer_firsts[self._fill : self._fill + count] = firsts
            self._fill += count
        self._size += count
        self._grow_filter()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _find(self, key: int, first: int):
        """``(run, index)`` of a live entry (``run`` None for the
        buffer), or None."""
        fill, marked = self._fill, self._marked
        buffered = self._buffer_keys
        if marked < fill:  # the buffer's tail is not in the filter yet
            tail = np.flatnonzero(buffered[marked:fill] == np.uint64(key))
            for index in (marked + tail).tolist():
                if int(self._buffer_firsts[index]) == first:
                    return None, index
        filter_, shift = self._filter, self._filter_shift
        for multiplier in (_FILTER_A, _FILTER_B):
            bit = (key * multiplier & MASK64) >> shift
            if not filter_[bit >> 3] >> (bit & 7) & 1:
                return None
        if marked:
            for index in np.flatnonzero(buffered[:marked] == np.uint64(key)).tolist():
                if int(self._buffer_firsts[index]) == first:
                    return None, index
        for run in self._runs:
            index = run.find(key, first)
            if index >= 0:
                return run, index
        return None

    def _clear_filter(self, bits: int) -> None:
        """An empty filter of ``bits`` bits (a power of two)."""
        self._filter = bytearray(bits // 8)
        self._filter_shift = 64 - (bits.bit_length() - 1)

    def _mark_filter(self, keys: np.ndarray) -> None:
        """Set the two filter bits of every key (the scalar probe's)."""
        shift = np.uint64(self._filter_shift)
        bits = np.concatenate(
            [(keys * np.uint64(multiplier)) >> shift for multiplier in (_FILTER_A, _FILTER_B)]
        )
        np.bitwise_or.at(
            np.frombuffer(self._filter, dtype=np.uint8),
            bits >> np.uint64(3),
            np.left_shift(np.uint8(1), (bits & np.uint64(7)).astype(np.uint8)),
        )

    def _grow_filter(self) -> None:
        """Double the filter until it has ``FILTER_BITS`` bits per pair
        again, rebuilding it from the live keys (the bits of deleted
        pairs drop out)."""
        bits = len(self._filter) * 8
        if self._size * FILTER_BITS <= bits:
            return
        while bits < FILTER_BITS * self._size:
            bits *= 2
        self._clear_filter(bits)
        for run in self._runs:
            self._mark_filter(run.live_entries()[0])
        self._mark_filter(self._buffer_keys[: self._fill])
        self._marked = self._fill

    def _flush(self) -> None:
        if self._fill:
            self._mark_filter(self._buffer_keys[self._marked : self._fill])
            fill, self._fill, self._marked = self._fill, 0, 0
            self._push(self._buffer_keys[:fill], self._buffer_firsts[:fill])

    def _push(self, keys: np.ndarray, firsts: np.ndarray) -> None:
        """Sort pairs into a new run (a copy: the inputs may be views),
        then merge runs until their sizes halve from oldest to newest."""
        order = np.argsort(keys, kind="stable")
        runs = self._runs
        runs.append(_Run(keys[order], firsts[order]))
        while len(runs) > 1 and runs[-2].live <= 2 * runs[-1].live:
            newer_keys, newer_firsts = runs.pop().live_entries()
            older_keys, older_firsts = runs.pop().live_entries()
            # Merge the sorted runs by scattering into the output: no
            # concatenated copy and no sort permutation to hold.
            size = len(older_keys) + len(newer_keys)
            place = older_keys.searchsorted(newer_keys) + np.arange(len(newer_keys))
            from_older = np.ones(size, dtype=bool)
            from_older[place] = False
            keys = np.empty(size, dtype=np.uint64)
            firsts = np.empty(size, dtype=np.int64)
            keys[place], keys[from_older] = newer_keys, older_keys
            firsts[place], firsts[from_older] = newer_firsts, older_firsts
            runs.append(_Run(keys, firsts))
