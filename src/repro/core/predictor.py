"""The sketch-based streaming link predictor (the paper's method).

:class:`MinHashLinkPredictor` maintains, for every vertex seen in the
stream:

* one k-mins MinHash row of its neighbor set (``k`` slot minima +
  witnesses; all vertices share a single :class:`~repro.hashing.HashBank`
  so sketches are comparable), and
* one degree counter (exact by default).

The rows live in a columnar store — one growable matrix per sketch
component plus a vertex→row dict, capacity doubling when it fills — so
there are no per-vertex objects; :meth:`MinHashLinkPredictor.sketch`
hands out a :class:`~repro.sketches.minhash.KMinHash` copy of a row.

Per stream edge ``(u, v)``: two sketch updates and two counter
increments — ``O(k)`` vectorized work, *constant time per edge*.  Space
is ``16k + 8`` bytes per vertex, *constant space per vertex*.  Those
are the two headline resource claims of the abstract, and benchmarks
E2/E4 measure them.

Queries combine the pair's sketch collisions with degrees through the
estimator algebra of :mod:`repro.core.estimators`; the supported
measures are exactly the registry of :mod:`repro.exact.measures`, so
any experiment can ask the sketch and the exact oracle the *same*
question by name.

Example
-------
>>> from repro import MinHashLinkPredictor, SketchConfig
>>> from repro.graph import from_pairs
>>> predictor = MinHashLinkPredictor(SketchConfig(k=64, seed=7))
>>> predictor.process(from_pairs([(0, 2), (1, 2), (0, 3), (1, 3)]))
4
>>> predictor.score(0, 1, "common_neighbors")  # true answer: 2
2.0
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from types import SimpleNamespace
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.core.block import _VALUE_CAP, apply_edge_block
from repro.core.config import SketchConfig
from repro.core.degrees import CountMinDegrees, DegreeTracker, ExactDegrees
from repro.core.estimators import (
    clamp_intersection,
    common_neighbors_from_jaccard,
    jaccard_std_error,
    union_size_from_jaccard,
    witness_sum_from_matches,
)
from repro.errors import ConfigurationError, SketchStateError
from repro.exact.measures import Measure, measure_by_name
from repro.hashing import HashBank
from repro.interface import LinkPredictor
from repro.sketches.minhash import EMPTY_SLOT, NO_WITNESS, KMinHash

__all__ = ["MinHashLinkPredictor", "PairEstimate", "SketchArrays", "fold_sketch_arrays",
           "mergeable_config", "merge_shards"]


class SketchArrays(NamedTuple):
    """A predictor's entire per-vertex state as contiguous arrays.

    Returned by :meth:`MinHashLinkPredictor.export_arrays`; consumed by
    checkpointing (:mod:`repro.core.persistence`) and the batch query
    engine (:mod:`repro.serve`).  Row ``i`` of every matrix belongs to
    ``vertex_ids[i]``; ``vertex_ids`` is sorted ascending so row lookup
    is a binary search.
    """

    #: Sorted vertex ids, ``int64 (n,)``.
    vertex_ids: np.ndarray
    #: Slot minima, ``uint64 (n, k)``.
    values: np.ndarray
    #: Slot witnesses, ``int64 (n, k)``; ``None`` without witness tracking.
    witnesses: Optional[np.ndarray]
    #: Per-sketch update counters, ``int64 (n,)``.
    update_counts: np.ndarray
    #: Degrees as currently believed by the tracker, ``int64 (n,)``.
    degrees: np.ndarray

    def row_chunks(self):
        """The ``(values, witnesses)`` rows as one chunk: how
        :func:`fold_sketch_arrays` reads a part held whole."""
        return ((self.values, self.witnesses),)


@dataclass(frozen=True)
class PairEstimate:
    """All paper measures for one pair, with the Jaccard error bar.

    Returned by :meth:`MinHashLinkPredictor.estimate`; fields mirror the
    paper's three target measures plus the degrees that parameterise
    them and the ±1σ standard error of the underlying Ĵ.
    """

    u: int
    v: int
    jaccard: float
    common_neighbors: float
    adamic_adar: float
    resource_allocation: float
    degree_u: int
    degree_v: int
    jaccard_std_error: float


class MinHashLinkPredictor(LinkPredictor):
    """MinHash-sketch streaming link predictor.

    Parameters
    ----------
    config:
        A :class:`~repro.core.config.SketchConfig`; defaults are the
        paper-typical ``k=128`` with witness tracking and exact degrees.
    """

    method_name = "minhash"

    # Row r belongs to vertex _ids[r]; rows are in arrival order, the
    # first len(_rows) are live and the rest is capacity.
    __slots__ = ("config", "bank", "_degrees", "_rows", "_ids", "_values", "_witnesses", "_counts")

    def __init__(self, config: Optional[SketchConfig] = None) -> None:
        self.config = config or SketchConfig()
        self.bank = HashBank(self.config.seed, self.config.k)
        self._degrees: DegreeTracker
        if self.config.degree_mode == "exact":
            self._degrees = ExactDegrees()
        else:
            self._degrees = CountMinDegrees(
                width=self.config.countmin_width,
                depth=self.config.countmin_depth,
                seed=self.config.seed ^ 0xDE6EE5,
            )
        self._adopt(*_columns(0, self.config))

    # ------------------------------------------------------------------
    # The columnar store
    # ------------------------------------------------------------------

    def _adopt(self, ids, values, witnesses, counts) -> None:
        """Make these arrays the whole store, all rows live (no copy)."""
        self._ids, self._values, self._witnesses, self._counts = ids, values, witnesses, counts
        self._rows: Dict[int, int] = dict(zip(ids.tolist(), range(len(ids))))

    def _append(self, vertices: List[int]) -> range:
        """Give each new vertex the next free row, holding an empty
        sketch; the capacity doubles when it fills."""
        start = len(self._rows)
        stop = start + len(vertices)
        if stop > len(self._ids):
            columns = _columns(max(stop, 2 * len(self._ids)), self.config)
            for new, old in zip(columns, (self._ids, self._values, self._witnesses, self._counts)):
                if old is not None:
                    new[:start] = old[:start]
            self._ids, self._values, self._witnesses, self._counts = columns
        self._ids[start:stop] = vertices
        self._values[start:stop] = EMPTY_SLOT
        if self._witnesses is not None:
            self._witnesses[start:stop] = NO_WITNESS
        self._counts[start:stop] = 0
        self._rows.update(zip(vertices, range(start, stop)))
        return range(start, stop)

    def _row_of(self, vertex: int) -> int:
        row = self._rows.get(vertex)
        return self._append([vertex]).start if row is None else row

    def _merge_rows(self, vertices: np.ndarray, values, witnesses, counts) -> None:
        """Fold sketch rows in (the block kernel's batch minima, or whole
        shards), appending rows for new vertices: a row takes each
        *strictly* smaller slot and its witness, so a tie keeps the
        stored witness, and update counts add."""
        rows = np.fromiter(
            map(self._rows.get, vertices.tolist(), repeat(-1)), dtype=np.int64, count=len(vertices)
        )
        unseen = np.flatnonzero(rows < 0)
        if unseen.size:
            rows[unseen] = self._append(vertices[unseen].tolist())
        old_values = self._values[rows]
        improved = values < old_values
        changed = np.flatnonzero(improved.any(axis=1))
        if changed.size:
            improved, target = improved[changed], rows[changed]
            block = old_values[changed]
            np.copyto(block, values[changed], where=improved)
            self._values[target] = block
            if witnesses is not None:
                block = self._witnesses[target]
                np.copyto(block, witnesses[changed], where=improved)
                self._witnesses[target] = block
        self._counts[rows] += counts

    def _stored_arrays(self) -> SketchArrays:
        """The live rows as views, in store (arrival) order."""
        n = len(self._rows)
        ids = self._ids[:n]
        witnesses = None if self._witnesses is None else self._witnesses[:n]
        degrees = np.fromiter(map(self._degrees.get, ids.tolist()), dtype=np.int64, count=n)
        return SketchArrays(ids, self._values[:n], witnesses, self._counts[:n], degrees)

    def __getstate__(self):
        # Live rows only: no capacity slack, no per-vertex objects.
        return (self.config, self.bank, self._degrees) + tuple(self._stored_arrays()[:4])

    def __setstate__(self, state) -> None:
        self.config, self.bank, self._degrees = state[:3]
        self._adopt(*state[3:])

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def update(self, u: int, v: int) -> None:
        """Consume one stream edge: ``O(k)`` vectorized work.

        Self-loops are rejected (the measures are defined on simple
        graphs).  Duplicate arrivals are idempotent on the sketches but
        increment degrees, so on multi-edge streams the degree-consuming
        estimators drift *upward*: ``preferential_attachment`` scales
        with the product of inflated arrival counts, and ``adamic_adar``
        / ``resource_allocation`` damp each witness by an inflated
        degree (biasing those sums *downward*).  Pre-filter with
        :func:`repro.graph.stream.deduplicated`, or ingest through a
        :class:`~repro.stream.policies.StreamGuard` with a
        ``duplicate_edge`` policy — the runner then reports how many
        duplicates it saw (``stats()["duplicate_edges_detected"]``).
        """
        if u == v:
            raise ConfigurationError(f"self-loop on vertex {u} is not allowed")
        if u < 0 or v < 0:
            raise ConfigurationError(f"vertex ids must be non-negative, got ({u}, {v})")
        # One fused hash evaluation for both endpoints (hot path).
        hashes_v, hashes_u = self.bank.values_pair(v, u)
        row_u = self._row_of(u)
        row_v = self._row_of(v)  # may grow the store: take row views after
        self._insert(row_u, v, hashes_v)
        self._insert(row_v, u, hashes_u)
        self._degrees.increment(u)
        self._degrees.increment(v)

    def _insert(self, row: int, key: int, hashes: np.ndarray) -> None:
        """:meth:`KMinHash.update_hashed <repro.sketches.minhash.KMinHash.update_hashed>`
        on one store row: only a strictly smaller hash takes a slot."""
        hashes = np.minimum(hashes, _VALUE_CAP)
        values = self._values[row]
        improved = hashes < values
        if improved.any():
            values[improved] = hashes[improved]
            if self._witnesses is not None:
                self._witnesses[row][improved] = key
        self._counts[row] += 1

    def update_block(self, us, vs) -> int:
        """Consume a whole edge batch through the vectorized kernel.

        Bit-identical to ``for u, v in zip(us, vs): self.update(u, v)``
        — sketch values, witnesses, update counts, and degrees all match
        the sequential loop exactly (the property the hypothesis suite
        pins) — but hashes the entire batch in one
        :meth:`~repro.hashing.HashBank.values_block` pass and applies
        scatter-min updates to packed per-vertex matrices, which is
        ~10x the scalar path at realistic batch sizes (bench E4).

        The whole batch validates up front: any self-loop or negative
        id raises :class:`~repro.errors.ConfigurationError` *before*
        any mutation, so a rejected batch leaves the predictor exactly
        as it was.  Returns the number of edges applied.  Duplicate
        arrivals inside or across batches behave exactly as in
        :meth:`update` (idempotent sketches, inflated degrees — see the
        bias note there).
        """
        return apply_edge_block(self, us, vs)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def degree(self, vertex: int) -> int:
        return self._degrees.get(vertex)

    @property
    def vertex_count(self) -> int:
        """Number of vertices currently sketched."""
        return len(self._rows)

    def sketch(self, vertex: int) -> Optional[KMinHash]:
        """A copy of the vertex's sketch, or ``None`` for an unseen vertex."""
        row = self._rows.get(vertex)
        if row is None:
            return None
        return KMinHash.from_arrays(
            self.bank,
            self._values[row],
            None if self._witnesses is None else self._witnesses[row],
            update_count=int(self._counts[row]),
        )

    def _matches(self, row_u: int, row_v: int) -> np.ndarray:
        """Slots where both rows hold the same non-empty minimum."""
        a = self._values[row_u]
        b = self._values[row_v]
        return (a != EMPTY_SLOT) & (b != EMPTY_SLOT) & (a == b)

    def jaccard(self, u: int, v: int) -> float:
        """Unbiased MinHash estimate of ``J(N(u), N(v))``."""
        row_u = self._rows.get(u)
        row_v = self._rows.get(v)
        if row_u is None or row_v is None:
            return 0.0
        # An empty sketch summarises the empty set: Ĵ = 0 (KMinHash.jaccard).
        if self._counts[row_u] == 0 or self._counts[row_v] == 0:
            return 0.0
        return float(np.count_nonzero(self._matches(row_u, row_v))) / self.config.k

    def score(self, u: int, v: int, measure_name: str) -> float:
        """Estimate any registered measure for the pair (see module
        docstring for the estimator derivations).

        Unseen-vertex policy (pinned by the regression suite, and
        mirrored exactly by :class:`repro.serve.QueryEngine`): if either
        endpoint has never appeared in the stream, **every** measure
        scores 0.0 — including ``preferential_attachment``, whose
        Count-Min degree estimate for an unseen vertex can otherwise be
        a spurious positive.  Queries never raise ``KeyError``.
        Self-pairs ``(u, u)`` are answered as a pair of identical
        neighborhoods (``Ĵ = 1``, common neighbors clamp to the
        degree); zero-degree endpoints score 0.0.
        """
        measure = measure_by_name(measure_name)
        return self._score(u, v, measure)

    def _score(self, u: int, v: int, measure: Measure) -> float:
        # Policy: unseen vertex => 0.0 for every measure, checked before
        # any degree lookup so approximate degree tables cannot invent a
        # score for a vertex that was never sketched.
        if u not in self._rows or v not in self._rows:
            return 0.0
        du = self.degree(u)
        dv = self.degree(v)
        if measure.kind == "degree_product":
            return float(du * dv)
        if du == 0 or dv == 0:
            return 0.0
        j = self.jaccard(u, v)
        if measure.name == "jaccard":
            return j  # the direct, unbiased estimate — no degree plug-in
        if measure.kind == "overlap_ratio":
            intersection = common_neighbors_from_jaccard(j, du, dv)
            return measure.ratio(intersection, du, dv)  # type: ignore[misc]
        # Witness sums.  Common neighbors has the closed form; general
        # weights go through the Horvitz–Thompson path over witnesses.
        if measure.name == "common_neighbors":
            return common_neighbors_from_jaccard(j, du, dv)
        if not self.config.track_witnesses:
            raise SketchStateError(
                f"measure {measure.name!r} needs witness tracking; "
                "construct with SketchConfig(track_witnesses=True)"
            )
        union = union_size_from_jaccard(j, du, dv)
        row_u = self._rows[u]
        witnesses = self._witnesses[row_u][self._matches(row_u, self._rows[v])]
        witness_degrees = map(self._degrees.get, witnesses.tolist())
        raw = witness_sum_from_matches(
            union, witness_degrees, measure.witness_weight, self.config.k
        )
        # A witness-sum cannot exceed min(du, dv) times the largest
        # possible per-witness weight; common weights peak at degree 2.
        ceiling = min(du, dv) * measure.witness_weight(2)  # type: ignore[misc]
        return min(raw, ceiling)

    def estimate(self, u: int, v: int) -> PairEstimate:
        """All three paper measures (plus RA) for one pair, with the
        Jaccard standard error, in a single sketch comparison."""
        j = self.jaccard(u, v)
        du = self.degree(u)
        dv = self.degree(v)
        return PairEstimate(
            u=u,
            v=v,
            jaccard=j,
            common_neighbors=clamp_intersection(
                common_neighbors_from_jaccard(j, du, dv), du, dv
            ),
            adamic_adar=self.score(u, v, "adamic_adar"),
            resource_allocation=self.score(u, v, "resource_allocation"),
            degree_u=du,
            degree_v=dv,
            jaccard_std_error=jaccard_std_error(j, self.config.k),
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def export_arrays(self) -> SketchArrays:
        """Snapshot all per-vertex state as contiguous arrays.

        One ``(n, k)`` matrix per sketch component plus the degree
        vector, rows sorted by vertex id.  This is the export surface
        shared by checkpointing and the batch query engine: both need
        the same matrices, and building them in one place keeps the
        row-order convention (sorted ids) impossible to get wrong.

        The arrays are fresh copies (one sorted gather of the store) —
        mutating them never touches the live predictor, and further
        stream updates never invalidate an earlier export.
        """
        stored = self._stored_arrays()
        order = np.argsort(stored.vertex_ids)
        return SketchArrays(*(None if a is None else a[order] for a in stored))

    @classmethod
    def from_arrays(cls, config: SketchConfig, arrays: SketchArrays) -> "MinHashLinkPredictor":
        """The inverse of :meth:`export_arrays` (exact degrees only):
        answers every query and further update as the exported predictor
        would.  Checkpoint restore and ``PackedSketches.to_predictor``
        both come back through here.  The predictor adopts the arrays
        as its store (rows in any order) without copying them.
        """
        if config.degree_mode != "exact":
            raise SketchStateError("from_arrays requires exact degrees")
        degrees = _exact_degrees(arrays.vertex_ids, arrays.degrees)
        return cls._over(config, HashBank(config.seed, config.k), arrays, degrees)

    @classmethod
    def _over(
        cls, config: SketchConfig, bank: HashBank, arrays: SketchArrays, degrees: DegreeTracker
    ) -> "MinHashLinkPredictor":
        """A predictor adopting ``arrays``' rows (no copy), reading ``degrees``."""
        n, k = len(arrays.vertex_ids), config.k
        shapes = (arrays.values.shape, getattr(arrays.witnesses, "shape", None))
        if shapes + (arrays.update_counts.shape,) != (
            (n, k), (n, k) if config.track_witnesses else None, (n,)
        ):
            raise SketchStateError(f"sketch arrays do not fit {n} vertices of {config}")
        predictor = cls.__new__(cls)
        predictor.config, predictor.bank, predictor._degrees = config, bank, degrees
        dtypes = (np.int64, np.uint64, np.int64, np.int64)
        owned = [a if a is None else np.require(a, t, ["C", "W"]) for a, t in zip(arrays, dtypes)]
        predictor._adopt(*owned)
        if len(predictor._rows) != n:
            raise SketchStateError("sketch arrays repeat a vertex id")
        return predictor

    @classmethod
    def _view(
        cls, config: SketchConfig, bank: HashBank, sketches: Dict[int, KMinHash], degree_of
    ) -> "MinHashLinkPredictor":
        """A throwaway predictor over copies of a few sketches, every degree
        read from ``degree_of``: how windowed and dynamic predictors score."""
        rows = list(sketches.values())
        arrays = SketchArrays(
            np.array(list(sketches), dtype=np.int64),
            np.stack([sketch.values for sketch in rows]),
            np.stack([sketch.witnesses for sketch in rows]) if config.track_witnesses else None,
            np.array([sketch.update_count for sketch in rows], dtype=np.int64),
            None,
        )
        return cls._over(config, bank, arrays, SimpleNamespace(get=degree_of))

    # ------------------------------------------------------------------
    # Distribution
    # ------------------------------------------------------------------

    def merge(self, other: "MinHashLinkPredictor") -> "MinHashLinkPredictor":
        """Combine two predictors built over *disjoint stream partitions*.

        This is the scale-out story: split an edge stream across
        workers, sketch each partition independently (same
        :class:`SketchConfig`, so the hash banks coincide), and merge.
        Per-vertex k-mins merges are exact for neighborhood unions, and
        degree counters add, so on simple streams whose *edges* are
        partitioned (each undirected edge processed by exactly one
        worker) the merged predictor is **bit-identical** to a
        single-pass predictor over the concatenated stream — the
        property the test-suite pins.  A slot tie keeps ``self``'s
        witness (:func:`fold_sketch_arrays`).

        Raises :class:`SketchStateError` for mismatched configurations
        and :class:`ConfigurationError` for Count-Min degree mode
        (conservative Count-Min tables are not mergeable — see
        :meth:`repro.sketches.countmin.CountMin.merge`).
        """
        return merge_shards([self, other])

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def nominal_bytes(self) -> int:
        per_slot = 16 if self.config.track_witnesses else 8
        return len(self._rows) * self.config.k * per_slot + self._degrees.nominal_bytes()

    def bytes_per_vertex(self) -> float:
        """Average packed bytes per sketched vertex (0 if none yet)."""
        if not self._rows:
            return 0.0
        return self.nominal_bytes() / len(self._rows)

    def __repr__(self) -> str:
        return (
            f"MinHashLinkPredictor(k={self.config.k}, "
            f"vertices={len(self._rows)}, "
            f"witnesses={self.config.track_witnesses})"
        )


def _columns(capacity: int, config: SketchConfig) -> list:
    """Uninitialised store columns: ids, values, witnesses (or None), counts."""
    rows = (capacity, config.k)
    witnesses = np.empty(rows, dtype=np.int64) if config.track_witnesses else None
    ids, counts = np.empty(capacity, np.int64), np.empty(capacity, np.int64)
    return [ids, np.empty(rows, np.uint64), witnesses, counts]


def _exact_degrees(vertex_ids: np.ndarray, degrees: np.ndarray) -> ExactDegrees:
    """An exact degree table holding the nonzero ``degrees``."""
    table = ExactDegrees()
    nonzero = degrees != 0
    table._counts.update(zip(vertex_ids[nonzero].tolist(), degrees[nonzero].tolist()))
    return table


def fold_sketch_arrays(parts: Iterable, config: SketchConfig) -> MinHashLinkPredictor:
    """One predictor holding the union of per-shard sketch parts.

    A part has per-vertex ``vertex_ids``, ``update_counts`` and
    ``degrees`` columns, and ``row_chunks()`` yields its ``(values,
    witnesses)`` rows as consecutive chunks: a :class:`SketchArrays`
    yields them whole, the sharded coordinator reads them off a
    worker's pipe.  The union store is sized from the small columns
    before any row arrives, so it never grows mid-fold and only one
    chunk of a part is resident at a time.  Parts fold in order, a slot
    tie keeps the earlier part's witness (any fold order gives
    :meth:`MinHashLinkPredictor.merge`'s result), and update counts and
    degrees add.
    """
    parts = list(parts)
    vertex_ids = np.unique(np.concatenate([part.vertex_ids for part in parts]))
    degrees = np.zeros(len(vertex_ids), dtype=np.int64)
    merged = MinHashLinkPredictor(config)
    merged._append(vertex_ids.tolist())
    for part in parts:
        degrees[np.searchsorted(vertex_ids, part.vertex_ids)] += part.degrees
        start = 0
        for values, witnesses in part.row_chunks():
            stop = start + len(values)
            merged._merge_rows(
                part.vertex_ids[start:stop], values, witnesses, part.update_counts[start:stop]
            )
            start = stop
    merged._degrees = _exact_degrees(vertex_ids, degrees)
    return merged


def mergeable_config(shards: Sequence) -> SketchConfig:
    """The configuration every shard shares: :class:`ConfigurationError`
    for no shards or Count-Min degrees, :class:`SketchStateError` for
    mismatched configs."""
    if not shards:
        raise ConfigurationError("merging needs at least one shard")
    config = shards[0].config
    for shard in shards[1:]:
        if shard.config != config:
            raise SketchStateError(
                "can only merge shards with identical configurations "
                f"(got {config} vs {shard.config})"
            )
    config.require_mergeable()
    return config


def merge_shards(shards: Sequence) -> MinHashLinkPredictor:
    """Reduce shards into one predictor (the parallel-ingest join step).

    A shard is a predictor, whose stored rows fold as views (no copy),
    or a part of :func:`fold_sketch_arrays` that carries its ``config``
    (the sharded coordinator's pipe reader).  One fold pass in shard
    order, so slot ties (two shards holding the same minimum) resolve
    in shard order — the result equals folding left-to-right through
    :meth:`MinHashLinkPredictor.merge`, and a serial stream presents
    the lower-offset arrival first only when hash values genuinely tie,
    which the fold breaks identically for any association order.  The
    configurations pass :func:`mergeable_config`'s checks.
    """
    config = mergeable_config(shards)
    return fold_sketch_arrays(
        (
            shard._stored_arrays() if isinstance(shard, MinHashLinkPredictor) else shard
            for shard in shards
        ),
        config,
    )
