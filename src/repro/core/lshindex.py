"""LSH self-join over the vertex sketches (extension).

The paper's predictor answers *pairwise* queries: given ``(u, v)``,
estimate the measure.  Many applications need the inverse: *find* the
high-similarity pairs among millions of vertices without any candidate
list.  Because every vertex already carries a MinHash signature, the
classic banding construction (Indyk–Motwani LSH; Leskovec–Rajaraman–
Ullman ch. 3) provides exactly that, for free:

* split the ``k`` slots into ``bands`` groups of ``rows = k/bands``
  consecutive slots;
* within each band, hash the band's slot values to a bucket id; two
  vertices collide in a band iff all ``rows`` slots agree there
  (probability ``J^rows``);
* a pair becomes a *candidate* if it collides in at least one band —
  probability ``1 - (1 - J^rows)^bands``, an S-curve with threshold
  ``J* ≈ (1/bands)^(1/rows)``.

The index is built in one vectorized pass over a snapshot's contiguous
``uint64 (n, k)`` slot matrix (``O(n·bands)`` NumPy work, no per-vertex
Python loop) and returns candidates whose estimated Jaccard clears a
cut-off, optionally rescored by any registered measure.  Pairs that are
already edges can be filtered by the caller (the sketches themselves
cannot know adjacency — by design they summarise neighborhoods, not
edges).

Bucket blow-up guard: a bucket larger than ``max_bucket`` vertices is
skipped (contributing ``O(bucket²)`` candidates from near-identical
neighborhoods is usually a pathology, e.g. a crawler artifact); skipped
buckets are counted and reported so silent truncation is impossible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from repro.core.predictor import MinHashLinkPredictor, SketchArrays
from repro.errors import ConfigurationError
from repro.hashing.families import _splitmix64_array
from repro.sketches.minhash import EMPTY_SLOT

__all__ = ["LshCandidateIndex", "lsh_threshold", "bands_for_threshold"]


def lsh_threshold(bands: int, rows: int) -> float:
    """The similarity at the S-curve's inflection, ``(1/b)^(1/r)``.

    Pairs well above it are caught with probability near 1; pairs well
    below, near 0.
    """
    if bands < 1 or rows < 1:
        raise ConfigurationError(
            f"bands and rows must be positive, got {bands}x{rows}"
        )
    return (1.0 / bands) ** (1.0 / rows)


def bands_for_threshold(k: int, threshold: float) -> Tuple[int, int]:
    """Choose ``(bands, rows)`` with ``bands*rows <= k`` whose S-curve
    threshold is closest to ``threshold``.

    >>> bands_for_threshold(128, 0.5)
    (25, 5)
    """
    if k < 1:
        raise ConfigurationError(f"k must be positive, got {k}")
    if not 0.0 < threshold < 1.0:
        raise ConfigurationError(f"threshold must be in (0, 1), got {threshold}")
    best: Tuple[int, int] = (1, k)
    best_gap = abs(lsh_threshold(1, k) - threshold)
    for rows in range(1, k + 1):
        bands = k // rows
        if bands < 1:
            break
        gap = abs(lsh_threshold(bands, rows) - threshold)
        if gap < best_gap:
            best, best_gap = (bands, rows), gap
    return best


@dataclass(frozen=True)
class CandidatePair:
    """One discovered pair with its estimated Jaccard."""

    u: int
    v: int
    jaccard: float


def _concat_ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """``np.concatenate([np.arange(a, b) for a, b in zip(starts, stops)])``
    without the Python loop."""
    counts = stops - starts
    offsets = np.repeat(starts - np.cumsum(counts) + counts, counts)
    return offsets + np.arange(len(offsets), dtype=np.int64)


class LshCandidateIndex(object):
    """Banding index over a snapshot of vertex sketches.

    Parameters
    ----------
    sketches:
        The sketch matrices to index: anything with ``vertex_ids``
        (sorted ``int64 (n,)``), ``values`` (``uint64 (n, k)``) and
        ``degrees`` (``int64 (n,)``) — a
        :class:`~repro.serve.packed.PackedSketches` store, or
        ``predictor.export_arrays()`` for a warm predictor.  The index
        keeps references to these arrays and never mutates them.
    bands / rows:
        Banding shape; ``bands * rows`` must not exceed the sketch
        size ``k``.  Use :func:`bands_for_threshold` to derive a shape
        from a similarity cut-off.
    max_bucket:
        Buckets larger than this are skipped (see module docstring).
    min_degree:
        Vertices below this degree are not indexed: their neighborhoods
        are too small for a Jaccard self-join to mean anything, and
        leaving them out keeps buckets informative.

    Layout: every ``(band, signature)`` bucket is one slice of
    ``_members`` (row numbers, ascending within a bucket), and the
    buckets are sorted by ``(signature, band)`` so a whole query's
    bands resolve in one :func:`numpy.searchsorted`.
    """

    __slots__ = (
        "vertex_ids",
        "values",
        "bands",
        "rows",
        "max_bucket",
        "min_degree",
        "skipped_buckets",
        "_bucket_signatures",
        "_bucket_bands",
        "_bucket_bounds",
        "_members",
    )

    def __init__(
        self,
        sketches: SketchArrays,
        bands: int,
        rows: int,
        max_bucket: int = 200,
        min_degree: int = 2,
    ) -> None:
        k = sketches.values.shape[1]
        if bands < 1 or rows < 1:
            raise ConfigurationError(
                f"bands and rows must be positive, got {bands}x{rows}"
            )
        if bands * rows > k:
            raise ConfigurationError(
                f"bands*rows = {bands * rows} exceeds the sketch size k = {k}"
            )
        if max_bucket < 2:
            raise ConfigurationError(f"max_bucket must be >= 2, got {max_bucket}")
        self.vertex_ids = sketches.vertex_ids
        self.values = sketches.values
        self.bands = bands
        self.rows = rows
        self.max_bucket = max_bucket
        self.min_degree = min_degree
        self.skipped_buckets = 0
        indexed = np.flatnonzero(sketches.degrees >= min_degree)
        width = max(len(indexed), 1)
        # Entry b*width + i is (band b, indexed row i); the stable sort
        # keeps equal signatures in (band, row) order, so every bucket
        # is one contiguous run with its members ascending.
        signatures = self._signatures(self.values[indexed]).ravel()
        order = np.argsort(signatures, kind="stable")
        signatures = signatures[order]
        bands_of = order // width
        new_bucket = np.ones(len(signatures), dtype=bool)
        new_bucket[1:] = (signatures[1:] != signatures[:-1]) | (bands_of[1:] != bands_of[:-1])
        starts = np.flatnonzero(new_bucket)
        self._bucket_signatures = signatures[starts]
        self._bucket_bands = bands_of[starts]
        self._bucket_bounds = np.append(starts, len(signatures))
        self._members = indexed[np.remainder(order, width, out=order)]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _signatures(self, values: np.ndarray) -> np.ndarray:
        """Every band's 64-bit signature, ``uint64 (bands, len(values))``.

        Chained SplitMix64 over each band's ``rows`` slots, seeded with
        ``band + 1`` — stable across processes (unlike Python's salted
        ``hash``), so index contents are reproducible.
        """
        slots = values[:, : self.bands * self.rows].reshape(len(values), self.bands, self.rows).T
        accumulator = np.arange(1, self.bands + 1, dtype=np.uint64)[:, np.newaxis]
        for row in range(self.rows):
            accumulator = _splitmix64_array(accumulator ^ slots[row])
        return accumulator

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def threshold(self) -> float:
        """This shape's S-curve similarity threshold."""
        return lsh_threshold(self.bands, self.rows)

    def capture_probability(self, jaccard: float) -> float:
        """Probability a pair with the given true Jaccard is returned:
        ``1 - (1 - J^rows)^bands``."""
        if not 0.0 <= jaccard <= 1.0:
            raise ConfigurationError(f"jaccard must be in [0, 1], got {jaccard}")
        return 1.0 - (1.0 - jaccard**self.rows) ** self.bands

    def candidate_pairs(self, min_jaccard: float = 0.0) -> Iterator[CandidatePair]:
        """Yield distinct co-bucketed pairs with Ĵ ≥ ``min_jaccard``.

        Each pair is yielded once (deduplicated across bands), in
        ascending ``(u, v)`` order, with its sketch-estimated Jaccard —
        matching non-empty slots over ``k``, exactly
        :meth:`KMinHash.jaccard <repro.sketches.minhash.KMinHash.jaccard>`.
        Overfull buckets are skipped and counted in
        :attr:`skipped_buckets`.
        """
        sizes = np.diff(self._bucket_bounds)
        self.skipped_buckets = int(np.count_nonzero(sizes > self.max_bucket))
        kept = (sizes >= 2) & (sizes <= self.max_bucket)
        bucket_stops = self._bucket_bounds[1:][kept]
        # Pair every member position with each later position in its bucket.
        positions = _concat_ranges(self._bucket_bounds[:-1][kept], bucket_stops)
        stops = np.repeat(bucket_stops, sizes[kept])
        left = np.repeat(positions, stops - positions - 1)
        right = _concat_ranges(positions + 1, stops)
        n = max(len(self.vertex_ids), 1)
        keys = np.unique(self._members[left] * n + self._members[right])
        k = self.values.shape[1]
        for lo in range(0, len(keys), 4096):
            chunk = keys[lo : lo + 4096]
            row_u, row_v = chunk // n, chunk % n
            a, b = self.values[row_u], self.values[row_v]
            estimates = np.count_nonzero((a == b) & (a != EMPTY_SLOT), axis=1) / k
            for i in np.flatnonzero(estimates >= min_jaccard).tolist():
                yield CandidatePair(
                    int(self.vertex_ids[row_u[i]]),
                    int(self.vertex_ids[row_v[i]]),
                    float(estimates[i]),
                )

    def candidates_of(self, vertex: int) -> np.ndarray:
        """All indexed vertices co-bucketed with ``vertex`` in any band,
        as a sorted, de-duplicated ``int64`` array.

        The single-vertex query the batch engine's ``top_k`` prunes
        through: the result contains every indexed vertex whose sketch
        agrees with ``vertex``'s on at least one full band — for a
        ``rows=1`` index that is *exactly* the set of vertices with
        ``Ĵ > 0``, so pruning loses nothing.  The vertex's band
        signatures are computed from its own sketch row, so the query
        works even when ``vertex`` itself fell under ``min_degree`` and
        was not indexed.  Unlike :meth:`candidate_pairs`, overfull
        buckets are **not** skipped: a single-vertex probe costs
        ``O(bucket)``, not ``O(bucket²)``, so the blow-up guard is
        unnecessary and skipping would silently lose true candidates.

        Returns an empty array for vertices with no sketch (the
        unseen-vertex policy: nothing to recommend).
        """
        row = int(np.searchsorted(self.vertex_ids, vertex))
        if row == len(self.vertex_ids) or self.vertex_ids[row] != vertex:
            return np.zeros(0, dtype=np.int64)
        wanted = self._signatures(self.values[row : row + 1])[:, 0]
        lo = np.searchsorted(self._bucket_signatures, wanted, side="left")
        hi = np.searchsorted(self._bucket_signatures, wanted, side="right")
        # A signature may recur in other bands; keep the query band's bucket.
        buckets = _concat_ranges(lo, hi)
        buckets = buckets[self._bucket_bands[buckets] == np.repeat(np.arange(self.bands), hi - lo)]
        members = np.sort(
            self._members[
                _concat_ranges(self._bucket_bounds[buckets], self._bucket_bounds[buckets + 1])
            ]
        )
        # Sort-and-mask dedupe: several times faster than np.unique here.
        keep = members != row
        keep[1:] &= members[1:] != members[:-1]
        return self.vertex_ids[members[keep]]

    def top_pairs(
        self,
        predictor: MinHashLinkPredictor,
        limit: int,
        measure_name: str = "jaccard",
        min_jaccard: float = 0.0,
    ) -> List[Tuple[CandidatePair, float]]:
        """The ``limit`` best discovered pairs under any registered
        measure, rescored through ``predictor`` (the one the indexed
        sketches came from), ties broken on the pair for determinism."""
        if limit < 1:
            raise ConfigurationError(f"limit must be positive, got {limit}")
        scored = [
            (pair, predictor.score(pair.u, pair.v, measure_name))
            for pair in self.candidate_pairs(min_jaccard)
        ]
        scored.sort(key=lambda item: (-item[1], item[0].u, item[0].v))
        return scored[:limit]

    def bucket_count(self) -> int:
        """Number of non-empty buckets."""
        return len(self._bucket_signatures)

    def __repr__(self) -> str:
        return (
            f"LshCandidateIndex(bands={self.bands}, rows={self.rows}, "
            f"threshold={self.threshold:.3f}, buckets={self.bucket_count()})"
        )
