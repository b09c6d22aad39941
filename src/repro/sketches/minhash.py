"""k-mins MinHash sketches with witness (argmin) tracking.

This is the sketch at the heart of the reproduced paper: every vertex of
the graph stream carries one :class:`KMinHash` summarising its neighbor
*set*, and pairwise overlap measures are estimated from slot collisions.

Theory recap (Broder 1997).  Let ``h_1 .. h_k`` be independent uniform
hash functions and ``m_i(S) = min_{x in S} h_i(x)``.  For two sets
``A, B``::

    P[m_i(A) = m_i(B)] = |A ∩ B| / |A ∪ B| = J(A, B)

because the overall minimum of ``A ∪ B`` under ``h_i`` is a uniformly
random element of the union, and the minima coincide exactly when that
element lies in the intersection.  Averaging the ``k`` indicator
variables gives an unbiased estimator of ``J`` with variance
``J(1-J)/k`` and the Hoeffding tail ``P[|Ĵ - J| ≥ ε] ≤ 2 exp(-2kε²)``.

**Witness tracking** is the detail that unlocks Adamic–Adar-style
measures: alongside each slot minimum we store the *key that achieved
it* (the "witness").  When slots ``i`` of two sketches collide, the
shared witness is a uniform sample from ``A ∪ B`` *conditioned on lying
in ``A ∩ B``* — which is exactly the sampling distribution a
Horvitz–Thompson estimator of ``Σ_{w∈A∩B} f(w)`` needs (see
:mod:`repro.core.estimators`).  The cost is one extra 8-byte word per
slot.

All vertices of one store share a single
:class:`repro.hashing.HashBank`, so a sketch stores only two small numpy
arrays — ``O(k)`` space per vertex, ``O(k)`` vectorized work per update,
matching the paper's "constant space per vertex / constant time per
edge" claims.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.errors import ConfigurationError, SketchStateError
from repro.hashing import HashBank
from repro.hashing.mixers import MASK64
from repro.sketches.base import MergeableSummary

__all__ = ["KMinHash", "EMPTY_SLOT", "NO_WITNESS"]

#: Slot value meaning "no key seen yet" (larger than any real hash by
#: construction: real hashes equal to 2**64-1 are remapped down by 1,
#: a 2**-64 perturbation that is irrelevant statistically).
EMPTY_SLOT = np.uint64(MASK64)

#: Witness value meaning "no key seen yet".
NO_WITNESS = np.int64(-1)


class KMinHash(MergeableSummary):
    """A k-mins MinHash sketch of a set of non-negative integer keys.

    Parameters
    ----------
    bank:
        The shared :class:`~repro.hashing.HashBank` supplying the ``k``
        hash functions.  *Every sketch that will ever be compared with
        this one must be built from an equal bank* (same seed and size);
        :meth:`jaccard` and :meth:`merge` enforce this.
    track_witnesses:
        Keep the argmin key per slot (default ``True``).  Required by
        the Adamic–Adar / resource-allocation estimators; disable to
        halve the sketch size when only Jaccard is needed.

    Notes
    -----
    Keys must fit in a signed 64-bit integer and be non-negative
    (vertex ids after relabelling).  Updates are idempotent: re-inserting
    a key never changes the state, so parallel edges in the stream are
    harmless to the *set* semantics.
    """

    __slots__ = ("bank", "values", "witnesses", "update_count")

    def __init__(self, bank: HashBank, track_witnesses: bool = True) -> None:
        self.bank = bank
        self.values = np.full(bank.size, EMPTY_SLOT, dtype=np.uint64)
        self.witnesses: Optional[np.ndarray]
        if track_witnesses:
            self.witnesses = np.full(bank.size, NO_WITNESS, dtype=np.int64)
        else:
            self.witnesses = None
        self.update_count = 0

    # ------------------------------------------------------------------
    # StreamSummary interface
    # ------------------------------------------------------------------

    @property
    def compatibility_token(self) -> tuple:
        return ("KMinHash", self.bank.seed, self.bank.size)

    def update(self, key: int) -> None:
        """Fold ``key`` into the sketch (``O(k)`` vectorized work).

        Raises :class:`ConfigurationError` for negative keys — witness
        storage reserves negative values for "empty".
        """
        if key < 0:
            raise ConfigurationError(f"keys must be non-negative, got {key}")
        self.update_hashed(key, self.bank.values(key))

    def update_hashed(self, key: int, hashes: np.ndarray) -> None:
        """Fold ``key`` in using precomputed ``bank.values(key)``.

        The per-edge hot path computes both endpoints' hashes in one
        fused call (:meth:`repro.hashing.HashBank.values_pair`) and
        feeds each side through here; semantics are identical to
        :meth:`update`.
        """
        # Remap the (probability 2**-64 per slot) maximal hash value so
        # EMPTY_SLOT can never be produced by a real key.
        hashes = np.minimum(hashes, EMPTY_SLOT - np.uint64(1))
        improved = hashes < self.values
        if improved.any():
            self.values[improved] = hashes[improved]
            if self.witnesses is not None:
                self.witnesses[improved] = key
        self.update_count += 1

    def update_many(self, keys: Iterable[int]) -> None:
        """Fold every key of an iterable into the sketch."""
        for key in keys:
            self.update(key)

    @classmethod
    def from_arrays(
        cls,
        bank: HashBank,
        values: np.ndarray,
        witnesses: Optional[np.ndarray] = None,
        update_count: int = 0,
    ) -> "KMinHash":
        """Rebuild a sketch from exported slot arrays.

        The inverse of reading :attr:`values`/:attr:`witnesses`
        directly: checkpoint restore and the batch query engine's
        packed matrices both round-trip sketches through flat arrays,
        and this is the single validated entry point back.  Arrays are
        copied; ``witnesses=None`` builds a non-tracking sketch.

        Raises :class:`SketchStateError` when an array's length does
        not match the bank's slot count.
        """
        values = np.asarray(values, dtype=np.uint64)
        if values.shape != (bank.size,):
            raise SketchStateError(
                f"values array has shape {values.shape}, expected ({bank.size},)"
            )
        sketch = cls(bank, track_witnesses=witnesses is not None)
        sketch.values = values.copy()
        if witnesses is not None:
            witnesses = np.asarray(witnesses, dtype=np.int64)
            if witnesses.shape != (bank.size,):
                raise SketchStateError(
                    f"witnesses array has shape {witnesses.shape}, "
                    f"expected ({bank.size},)"
                )
            sketch.witnesses = witnesses.copy()
        sketch.update_count = int(update_count)
        return sketch

    def nominal_bytes(self) -> int:
        per_slot = 8 if self.witnesses is None else 16
        return self.bank.size * per_slot

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def k(self) -> int:
        """Number of slots (hash functions)."""
        return self.bank.size

    def is_empty(self) -> bool:
        """True if no key has ever been inserted."""
        return self.update_count == 0

    def slot_matches(self, other: "KMinHash") -> np.ndarray:
        """Boolean array: which slots hold equal *non-empty* minima.

        Slots that are empty on either side never match (an empty slot
        carries no sample).
        """
        self.require_compatible(other)
        both_filled = (self.values != EMPTY_SLOT) & (other.values != EMPTY_SLOT)
        return both_filled & (self.values == other.values)

    def jaccard(self, other: "KMinHash") -> float:
        """Unbiased estimate of the Jaccard similarity of the two sets.

        Returns 0.0 when either sketch is empty: the Jaccard similarity
        with the empty set is conventionally zero, and an empty sketch
        summarises the empty set exactly.
        """
        self.require_compatible(other)
        if self.is_empty() or other.is_empty():
            return 0.0
        return float(np.count_nonzero(self.slot_matches(other))) / self.k

    def matching_witnesses(self, other: "KMinHash") -> np.ndarray:
        """Witness keys of the slots where both sketches collide.

        Each returned key is (a) a member of both underlying sets'
        union, (b) conditionally uniform over the *intersection* given a
        collision — the sample the HT estimators consume.  Requires
        witness tracking on ``self``.
        """
        if self.witnesses is None:
            raise SketchStateError(
                "witness tracking is disabled; rebuild the sketch with "
                "track_witnesses=True to query witnesses"
            )
        return self.witnesses[self.slot_matches(other)]

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------

    def merge(self, other: "KMinHash") -> "KMinHash":
        """Sketch of the *union* of both input sets (new object).

        Per-slot: keep the smaller minimum and its witness.  The result
        is identical to the sketch that a single pass over the
        concatenated streams would have produced.
        """
        self.require_compatible(other)
        if (self.witnesses is None) != (other.witnesses is None):
            raise SketchStateError(
                "cannot merge a witness-tracking sketch with a non-tracking one"
            )
        merged = KMinHash(self.bank, track_witnesses=self.witnesses is not None)
        take_other = other.values < self.values
        merged.values = np.where(take_other, other.values, self.values)
        if self.witnesses is not None and other.witnesses is not None:
            merged.witnesses = np.where(take_other, other.witnesses, self.witnesses)
        merged.update_count = self.update_count + other.update_count
        return merged

    def copy(self) -> "KMinHash":
        """Deep copy (arrays are duplicated; the bank is shared)."""
        dup = KMinHash(self.bank, track_witnesses=self.witnesses is not None)
        dup.values = self.values.copy()
        if self.witnesses is not None:
            dup.witnesses = self.witnesses.copy()
        dup.update_count = self.update_count
        return dup

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KMinHash):
            return NotImplemented
        if other.compatibility_token != self.compatibility_token:
            return False
        if not np.array_equal(self.values, other.values):
            return False
        if (self.witnesses is None) != (other.witnesses is None):
            return False
        if self.witnesses is not None and not np.array_equal(
            self.witnesses, other.witnesses
        ):
            return False
        return True

    def __hash__(self) -> int:  # mutable container: identity hashing
        return id(self)

    def __repr__(self) -> str:
        filled = int(np.count_nonzero(self.values != EMPTY_SLOT))
        return (
            f"KMinHash(k={self.k}, filled_slots={filled}, "
            f"updates={self.update_count})"
        )
