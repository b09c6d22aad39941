"""Seeded hash functions and hash families.

The sketches in :mod:`repro.sketches` are analysed assuming access to
independent uniform hash functions ``h_i : keys -> [0, 1)``.  This module
supplies concrete, reproducible instances:

* :class:`SplitMixHash` — a seeded avalanche hash built on
  :func:`repro.hashing.mixers.splitmix64`.  Not formally universal, but
  empirically indistinguishable from uniform and by far the fastest;
  this is the default family everywhere.
* :class:`MultiplyShiftHash` — Dietzfelbinger's multiply–shift scheme,
  2-universal for ``bits``-bit outputs.  Provided for users who want a
  provable universality guarantee at the cost of weaker bit diffusion.
* :class:`PolynomialHash` — degree-``d`` polynomial modulo the Mersenne
  prime ``2**61 - 1``; ``(d+1)``-wise independent.  The Hoeffding-style
  bounds quoted in :mod:`repro.core.estimators` only need bounded
  independence, and this family realises it exactly.
* :class:`HashBank` — the hot-path object: ``k`` SplitMix functions
  evaluated *simultaneously* with one vectorized numpy expression per
  key.  MinHash sketch updates call this once per stream edge endpoint.

Every object here is immutable after construction and fully determined
by its seed, so two processes constructing sketches from equal seeds
produce bit-identical state (a property the merge operations rely on,
and that the test-suite pins).

**Negative-key contract.**  Every hash path — scalar ``__call__``,
vectorized ``batch``, and the :class:`HashBank` block evaluators —
first reduces the key modulo ``2**64`` (two's-complement masking), so
``h(-1) == h(2**64 - 1)`` for every family and the scalar and batch
paths agree bit-for-bit on any int64-representable input.  Sketches
additionally *reject* negative keys at their own boundary (witness
storage reserves negative values), but the hash layer itself is total
and consistent.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.mixers import GOLDEN_GAMMA, MASK64, splitmix64, to_unit, to_unit_open

__all__ = [
    "HashFunction",
    "SplitMixHash",
    "MultiplyShiftHash",
    "PolynomialHash",
    "HashFamily",
    "SplitMixFamily",
    "MultiplyShiftFamily",
    "PolynomialFamily",
    "HashBank",
    "seed_sequence",
]

_MERSENNE_61 = (1 << 61) - 1

_U64 = np.uint64
_SHIFT_30 = _U64(30)
_SHIFT_27 = _U64(27)
_SHIFT_31 = _U64(31)
_SHIFT_11 = _U64(11)
_SHIFT_12 = _U64(12)
_MUL_1 = _U64(0xBF58476D1CE4E5B9)
_MUL_2 = _U64(0x94D049BB133111EB)
_GAMMA = _U64(GOLDEN_GAMMA)
_INV_2_53 = 2.0**-53
_INV_2_52 = 2.0**-52


def seed_sequence(seed: int, count: int) -> list[int]:
    """Return ``count`` pseudo-random 64-bit words derived from ``seed``.

    Implements the SplitMix64 *stream*: word ``i`` is
    ``splitmix64(seed + i * GOLDEN_GAMMA)``.  Consecutive words are
    statistically independent (this is exactly how SplitMix64 seeds the
    xoshiro generators), and the mapping is deterministic, so a seed
    fully determines every derived hash function in the library.
    """
    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count}")
    base = seed & MASK64
    return [splitmix64(base + i * GOLDEN_GAMMA) for i in range(count)]


#: Keys per chunk of :meth:`HashBank.values_block`.
_BLOCK_ROWS = 1024


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer over a uint64 array (wrapping)."""
    x = x + _GAMMA
    x = (x ^ (x >> _SHIFT_30)) * _MUL_1
    x = (x ^ (x >> _SHIFT_27)) * _MUL_2
    return x ^ (x >> _SHIFT_31)


class HashFunction(ABC):
    """A deterministic map from integer keys to 64-bit words.

    Subclasses must implement :meth:`__call__`; the unit-interval views
    and the vectorized batch path are derived from it (and overridden
    where a faster native path exists).
    """

    @abstractmethod
    def __call__(self, key: int) -> int:
        """Hash ``key`` to an unsigned 64-bit integer."""

    def unit(self, key: int) -> float:
        """Hash ``key`` to a float in ``[0, 1)``."""
        return to_unit(self(key))

    def unit_open(self, key: int) -> float:
        """Hash ``key`` to a float in the open interval ``(0, 1)``.

        Safe to feed to a logarithm; used by exponential-rank sampling.
        """
        return to_unit_open(self(key))

    def batch(self, keys: np.ndarray) -> np.ndarray:
        """Hash an integer array of keys elementwise (generic fallback).

        Keys are first cast to uint64 (wrapping), so negative inputs
        reduce modulo ``2**64`` exactly as the scalar paths do — the
        fallback and every native ``batch`` override agree bit-for-bit.
        """
        keys = np.asarray(keys).astype(np.uint64, casting="unsafe", copy=False)
        return np.array([self(int(k)) for k in keys], dtype=np.uint64)


class SplitMixHash(HashFunction):
    """A single seeded SplitMix64 hash: ``h(x) = mix(mix(seed) ^ x)``.

    The outer mix of the seed decorrelates functions whose seeds differ
    in few bits (e.g. consecutive integers), so ``SplitMixHash(0)`` and
    ``SplitMixHash(1)`` behave as unrelated functions.
    """

    __slots__ = ("seed", "_mixed_seed", "_mixed_seed_u64")

    def __init__(self, seed: int) -> None:
        self.seed = seed & MASK64
        self._mixed_seed = splitmix64(self.seed)
        self._mixed_seed_u64 = _U64(self._mixed_seed)

    def __call__(self, key: int) -> int:
        return splitmix64(self._mixed_seed ^ (key & MASK64))

    def batch(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        return _splitmix64_array(keys ^ self._mixed_seed_u64)

    def __repr__(self) -> str:
        return f"SplitMixHash(seed={self.seed:#x})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SplitMixHash) and other.seed == self.seed

    def __hash__(self) -> int:
        return hash(("SplitMixHash", self.seed))


class MultiplyShiftHash(HashFunction):
    """Dietzfelbinger multiply–shift: ``h(x) = ((a*x + b) mod 2^64) >> (64-bits)``.

    With ``a`` odd and ``(a, b)`` uniform, the family is 2-universal on
    ``bits``-bit outputs.  The output is left-aligned back into 64 bits
    so all :class:`HashFunction` consumers see the same value range.
    """

    __slots__ = ("a", "b", "bits")

    def __init__(self, a: int, b: int, bits: int = 64) -> None:
        if not 1 <= bits <= 64:
            raise ConfigurationError(f"bits must be in [1, 64], got {bits}")
        self.a = (a | 1) & MASK64  # force odd: required for universality
        self.b = b & MASK64
        self.bits = bits

    def __call__(self, key: int) -> int:
        h = ((self.a * (key & MASK64)) + self.b) & MASK64
        h >>= 64 - self.bits
        return (h << (64 - self.bits)) & MASK64

    def __repr__(self) -> str:
        return f"MultiplyShiftHash(a={self.a:#x}, b={self.b:#x}, bits={self.bits})"


class PolynomialHash(HashFunction):
    """Degree-``d`` polynomial over ``GF(2^61 - 1)``: ``(d+1)``-wise independent.

    ``h(x) = (c_d x^d + ... + c_1 x + c_0) mod p`` with ``p = 2^61-1``.
    Keys are first reduced mod ``p``; the output (< ``p``) is scaled into
    the 64-bit range so the unit-interval mapping stays uniform.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: list[int]) -> None:
        if not coefficients:
            raise ConfigurationError("need at least one coefficient")
        self.coefficients = tuple(c % _MERSENNE_61 for c in coefficients)
        if len(self.coefficients) > 1 and self.coefficients[-1] == 0:
            raise ConfigurationError("leading coefficient must be non-zero mod p")

    @property
    def independence(self) -> int:
        """The k-wise independence level this function contributes to."""
        return len(self.coefficients)

    def __call__(self, key: int) -> int:
        # Mask first (the library-wide negative-key contract): a negative
        # key must hash like its two's-complement uint64 image, not like
        # Python's ``key % p`` of the signed value.
        x = (key & MASK64) % _MERSENNE_61
        acc = 0
        for c in reversed(self.coefficients):  # Horner's rule
            acc = (acc * x + c) % _MERSENNE_61
        # Scale [0, p) up to 64 bits: multiply by floor(2^64 / p) = 8.
        return (acc * ((1 << 64) // _MERSENNE_61)) & MASK64

    def __repr__(self) -> str:
        return f"PolynomialHash(degree={len(self.coefficients) - 1})"


class HashFamily(ABC):
    """A seeded, indexable collection of hash functions.

    ``family.function(i)`` must return the same function for the same
    ``(seed, i)`` forever; sketches store only ``(family name, seed)``
    and regenerate functions on demand.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed & MASK64

    @abstractmethod
    def function(self, index: int) -> HashFunction:
        """Return the ``index``-th member of the family."""

    def functions(self, count: int) -> list[HashFunction]:
        """Return the first ``count`` members of the family."""
        return [self.function(i) for i in range(count)]


class SplitMixFamily(HashFamily):
    """Family of :class:`SplitMixHash` functions with derived seeds."""

    def function(self, index: int) -> SplitMixHash:
        if index < 0:
            raise ConfigurationError(f"index must be non-negative, got {index}")
        derived = splitmix64((self.seed + (index + 1) * GOLDEN_GAMMA) & MASK64)
        return SplitMixHash(derived)


class MultiplyShiftFamily(HashFamily):
    """Family of :class:`MultiplyShiftHash` functions with derived (a, b)."""

    def __init__(self, seed: int, bits: int = 64) -> None:
        super().__init__(seed)
        self.bits = bits

    def function(self, index: int) -> MultiplyShiftHash:
        if index < 0:
            raise ConfigurationError(f"index must be non-negative, got {index}")
        a, b = seed_sequence((self.seed ^ splitmix64(index)) & MASK64, 2)
        return MultiplyShiftHash(a, b, bits=self.bits)


class PolynomialFamily(HashFamily):
    """Family of :class:`PolynomialHash` functions of fixed independence."""

    def __init__(self, seed: int, independence: int = 4) -> None:
        super().__init__(seed)
        if independence < 1:
            raise ConfigurationError(
                f"independence must be at least 1, got {independence}"
            )
        self.independence = independence

    def function(self, index: int) -> PolynomialHash:
        if index < 0:
            raise ConfigurationError(f"index must be non-negative, got {index}")
        words = seed_sequence(
            (self.seed ^ splitmix64(index ^ 0xA5A5A5A5)) & MASK64, self.independence
        )
        coefficients = [w % _MERSENNE_61 for w in words]
        if coefficients[-1] == 0:  # vanishingly unlikely; keep degree exact
            coefficients[-1] = 1
        return PolynomialHash(coefficients)


class HashBank(object):
    """``k`` SplitMix hash functions evaluated together, vectorized.

    This is the object on the per-edge hot path: a MinHash update needs
    ``h_1(v), ..., h_k(v)`` for one key ``v``, and :meth:`values`
    computes all of them with a handful of numpy array operations
    instead of ``k`` Python-level calls.

    Function ``i`` of the bank equals ``SplitMixFamily(seed).function(i)``
    exactly — the scalar and vector paths are interchangeable, and the
    test-suite verifies the equivalence bit-for-bit.
    """

    __slots__ = ("seed", "size", "_mixed_seeds", "_pair_keys")

    def __init__(self, seed: int, size: int) -> None:
        if size < 1:
            raise ConfigurationError(f"bank size must be at least 1, got {size}")
        self.seed = seed & MASK64
        self.size = size
        family = SplitMixFamily(seed)
        mixed = [family.function(i)._mixed_seed for i in range(size)]
        self._mixed_seeds = np.array(mixed, dtype=np.uint64)
        # Reused scratch for values_pair: allocating a fresh (2, 1) array
        # per stream edge measurably drags the scalar ingest hot path.
        self._pair_keys = np.empty((2, 1), dtype=np.uint64)

    def values(self, key: int) -> np.ndarray:
        """Return ``[h_0(key), ..., h_{k-1}(key)]`` as a uint64 array."""
        return _splitmix64_array(self._mixed_seeds ^ _U64(key & MASK64))

    def values_pair(self, key_a: int, key_b: int) -> tuple:
        """Hash two keys through all ``k`` functions in one array pass.

        The per-edge hot path hashes both endpoints; fusing them into a
        single ``(2, k)`` numpy evaluation halves the fixed call
        overhead versus two :meth:`values` calls.  Returns
        ``(values_a, values_b)``, each identical to the corresponding
        :meth:`values` result.
        """
        keys = self._pair_keys
        keys[0, 0] = key_a & MASK64
        keys[1, 0] = key_b & MASK64
        both = _splitmix64_array(self._mixed_seeds ^ keys)
        return both[0], both[1]

    def values_block(self, keys) -> np.ndarray:
        """Hash a whole key batch through all ``k`` functions at once.

        Returns an ``(m, k)`` uint64 matrix whose row ``i`` equals
        :meth:`values` of ``keys[i]`` bit-for-bit — one
        :func:`_splitmix64_array` pass over the entire batch instead of
        ``m`` per-key evaluations.  This is the block-ingest kernel's
        hashing primitive (:mod:`repro.core.block`).  Negative keys
        reduce modulo ``2**64`` per the module contract.
        """
        keys = np.asarray(keys).astype(np.uint64, copy=False)
        if keys.ndim != 1:
            raise ConfigurationError(
                f"values_block expects a 1-d key array, got shape {keys.shape}"
            )
        # Row chunks: the finalizer's temporaries are chunk-sized, not
        # batch-sized, so the result is the call's only large array.
        hashed = np.empty((len(keys), self.size), dtype=np.uint64)
        for start in range(0, len(keys), _BLOCK_ROWS):
            chunk = keys[start : start + _BLOCK_ROWS, np.newaxis]
            hashed[start : start + len(chunk)] = _splitmix64_array(chunk ^ self._mixed_seeds)
        return hashed

    def units(self, key: int) -> np.ndarray:
        """Return the ``k`` hashes mapped into ``[0, 1)`` as float64.

        Matches :func:`repro.hashing.mixers.to_unit` bit-for-bit.
        """
        top53 = (self.values(key) >> _SHIFT_11).astype(np.float64)
        return top53 * _INV_2_53

    def units_open(self, key: int) -> np.ndarray:
        """Return the ``k`` hashes mapped into the open ``(0, 1)``.

        Matches :func:`repro.hashing.mixers.to_unit_open` bit-for-bit,
        so logarithms of the result are always finite.
        """
        top52 = (self.values(key) >> _SHIFT_12).astype(np.float64)
        return top52 * _INV_2_52 + _INV_2_53

    def __repr__(self) -> str:
        return f"HashBank(seed={self.seed:#x}, size={self.size})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HashBank)
            and other.seed == self.seed
            and other.size == self.size
        )

    def __hash__(self) -> int:
        return hash(("HashBank", self.seed, self.size))
