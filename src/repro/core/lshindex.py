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

The index is built band by band over a snapshot's contiguous
``uint64 (n, k)`` slot matrix (``O(n·bands)`` NumPy work, no per-vertex
Python loop, ``O(n)`` scratch beside what it keeps: one ``int32``
member entry per indexed vertex and band, 16 bytes per bucket) and
returns candidates whose estimated Jaccard clears a
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


def _chain(slots: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Chained SplitMix64 over the last axis of ``slots``, from ``seeds``."""
    accumulator = seeds
    for row in range(slots.shape[-1]):
        accumulator = _splitmix64_array(accumulator ^ slots[..., row])
    return accumulator


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Where each run of equal entries of a sorted array starts."""
    starts = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return starts


def _index_type(size: int) -> type:
    """The narrowest of ``int32``/``int64`` that indexes ``size`` entries."""
    return np.int32 if size < 2**31 else np.int64


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

    Layout: every ``(band, signature)`` bucket is one slice
    ``_members[start:stop]`` of row numbers, each band's slices lying
    in its own stretch of ``_members``, one entry per indexed vertex (so
    ``start // stretch`` is the band), and the buckets are sorted by
    ``(signature, band)`` so a whole query's bands resolve in one
    :func:`numpy.searchsorted`.  The build hashes and sorts one band at a
    time, so beside what the index holds (:meth:`nbytes`) its scratch is
    ``O(n)``.
    """

    __slots__ = (
        "vertex_ids",
        "values",
        "bands",
        "rows",
        "max_bucket",
        "min_degree",
        "skipped_buckets",
        "_width",
        "_bucket_signatures",
        "_bucket_starts",
        "_bucket_stops",
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
        width = self._width = len(indexed)
        self._members = np.empty(bands * width, dtype=_index_type(len(self.vertex_ids)))
        # First pass: sorting a band's signatures makes each of its
        # buckets one run of the band's stretch; keep each run's signature.
        runs = []
        for band in range(bands):
            members = self._members[band * width : (band + 1) * width]
            signatures = self._band_signatures(band)[indexed]
            order = np.argsort(signatures)
            members[:] = indexed[order]
            signatures = signatures[order]
            runs.append(signatures[_run_starts(signatures)])
        self._bucket_signatures = np.concatenate(runs)
        del runs
        self._bucket_signatures.sort()
        # Second pass: hash again (keeping every band's sorted signatures
        # would cost 8 bytes per member) and write each run to its
        # bucket's sorted place.  A band's runs have distinct signatures,
        # and a signature shared by several bands takes its places in
        # band order, so the buckets end in (signature, band) order.
        position_type = _index_type(len(self._members))
        self._bucket_starts = np.zeros(self.bucket_count(), dtype=position_type)
        self._bucket_stops = np.zeros(self.bucket_count(), dtype=position_type)
        for band in range(bands):
            members = self._members[band * width : (band + 1) * width]
            signatures = self._band_signatures(band)[members]
            starts = np.flatnonzero(_run_starts(signatures))
            places = np.searchsorted(self._bucket_signatures, signatures[starts])
            taken = np.flatnonzero(self._bucket_stops[places])
            while len(taken):
                places[taken] += 1
                taken = taken[self._bucket_stops[places[taken]] > 0]
            self._bucket_starts[places] = starts + band * width
            self._bucket_stops[places] = np.append(starts[1:], width) + band * width

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _band_signatures(self, band: int) -> np.ndarray:
        """Band ``band``'s signature of every row, ``uint64 (n,)``."""
        lo = band * self.rows
        return _chain(self.values[:, lo : lo + self.rows], np.uint64(band + 1))

    def _signatures(self, values: np.ndarray) -> np.ndarray:
        """Every band's 64-bit signature, ``uint64 (bands, len(values))``.

        Chained SplitMix64 over each band's ``rows`` slots, seeded with
        ``band + 1`` — stable across processes (unlike Python's salted
        ``hash``), so index contents are reproducible.
        """
        slots = values[:, : self.bands * self.rows].reshape(len(values), self.bands, self.rows)
        return _chain(slots, np.arange(1, self.bands + 1, dtype=np.uint64)).T

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
        sizes = self._bucket_stops - self._bucket_starts
        self.skipped_buckets = int(np.count_nonzero(sizes > self.max_bucket))
        kept = (sizes >= 2) & (sizes <= self.max_bucket)
        bucket_stops = self._bucket_stops[kept]
        # Pair every member position with each later position in its bucket.
        positions = _concat_ranges(self._bucket_starts[kept], bucket_stops)
        stops = np.repeat(bucket_stops, sizes[kept])
        left = np.repeat(positions, stops - positions - 1)
        right = _concat_ranges(positions + 1, stops)
        n = max(len(self.vertex_ids), 1)
        left = self._members[left].astype(np.int64)
        right = self._members[right]
        keys = np.unique(np.minimum(left, right) * n + np.maximum(left, right))
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
        bands_of = self._bucket_starts[buckets] // self._width
        buckets = buckets[bands_of == np.repeat(np.arange(self.bands), hi - lo)]
        members = np.sort(
            self._members[_concat_ranges(self._bucket_starts[buckets], self._bucket_stops[buckets])]
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

    def nbytes(self) -> int:
        """Bytes the index holds beyond the sketch arrays it references:
        one member entry per (indexed vertex, band) and a signature,
        start and stop per bucket."""
        return sum(
            array.nbytes
            for array in (
                self._members,
                self._bucket_signatures,
                self._bucket_starts,
                self._bucket_stops,
            )
        )

    def __repr__(self) -> str:
        return (
            f"LshCandidateIndex(bands={self.bands}, rows={self.rows}, "
            f"threshold={self.threshold:.3f}, buckets={self.bucket_count()})"
        )
