"""The sketch-based streaming link predictor (the paper's method).

:class:`MinHashLinkPredictor` maintains, for every vertex seen in the
stream:

* one :class:`~repro.sketches.minhash.KMinHash` of its neighbor set
  (``k`` slot minima + witnesses; all vertices share a single
  :class:`~repro.hashing.HashBank` so sketches are comparable), and
* one degree counter (exact by default).

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
from typing import Dict, NamedTuple, Optional

import numpy as np

from repro.core.block import apply_edge_block
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
from repro.sketches.minhash import KMinHash

__all__ = ["MinHashLinkPredictor", "PairEstimate", "SketchArrays", "merge_shards"]


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

    __slots__ = ("config", "bank", "_sketches", "_degrees")

    def __init__(self, config: Optional[SketchConfig] = None) -> None:
        self.config = config or SketchConfig()
        self.bank = HashBank(self.config.seed, self.config.k)
        self._sketches: Dict[int, KMinHash] = {}
        self._degrees: DegreeTracker
        if self.config.degree_mode == "exact":
            self._degrees = ExactDegrees()
        else:
            self._degrees = CountMinDegrees(
                width=self.config.countmin_width,
                depth=self.config.countmin_depth,
                seed=self.config.seed ^ 0xDE6EE5,
            )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def _sketch_of(self, vertex: int) -> KMinHash:
        sketch = self._sketches.get(vertex)
        if sketch is None:
            sketch = KMinHash(self.bank, track_witnesses=self.config.track_witnesses)
            self._sketches[vertex] = sketch
        return sketch

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
        self._sketch_of(u).update_hashed(v, hashes_v)
        self._sketch_of(v).update_hashed(u, hashes_u)
        self._degrees.increment(u)
        self._degrees.increment(v)

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
        return len(self._sketches)

    def jaccard(self, u: int, v: int) -> float:
        """Unbiased MinHash estimate of ``J(N(u), N(v))``."""
        su = self._sketches.get(u)
        sv = self._sketches.get(v)
        if su is None or sv is None:
            return 0.0
        return su.jaccard(sv)

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
        su = self._sketches.get(u)
        sv = self._sketches.get(v)
        if su is None or sv is None:
            return 0.0
        du = self.degree(u)
        dv = self.degree(v)
        if measure.kind == "degree_product":
            return float(du * dv)
        if du == 0 or dv == 0:
            return 0.0
        j = su.jaccard(sv)
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
        witness_degrees = (
            self._degrees.get(int(w)) for w in su.matching_witnesses(sv)
        )
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

        The arrays are fresh copies — mutating them never touches the
        live predictor, and further stream updates never invalidate an
        earlier export.
        """
        vertex_ids = np.array(sorted(self._sketches), dtype=np.int64)
        n = len(vertex_ids)
        k = self.config.k
        track = self.config.track_witnesses
        values = np.empty((n, k), dtype=np.uint64)
        witnesses = np.empty((n, k), dtype=np.int64) if track else None
        update_counts = np.empty(n, dtype=np.int64)
        degrees = np.empty(n, dtype=np.int64)
        for row, vertex in enumerate(vertex_ids.tolist()):
            sketch = self._sketches[vertex]
            values[row] = sketch.values
            if witnesses is not None:
                witnesses[row] = sketch.witnesses
            update_counts[row] = sketch.update_count
            degrees[row] = self.degree(vertex)
        return SketchArrays(vertex_ids, values, witnesses, update_counts, degrees)

    @classmethod
    def from_arrays(cls, config: SketchConfig, arrays: SketchArrays) -> "MinHashLinkPredictor":
        """The inverse of :meth:`export_arrays` (exact degrees only):
        answers every query and further update as the exported predictor
        would.  Checkpoint restore and ``PackedSketches.to_predictor``
        both come back through here."""
        predictor = cls(config)
        degree_table = predictor._degrees
        if not isinstance(degree_table, ExactDegrees):
            raise SketchStateError("from_arrays requires exact degrees")
        for row, vertex in enumerate(arrays.vertex_ids.tolist()):
            predictor._sketches[vertex] = KMinHash.from_arrays(
                predictor.bank,
                arrays.values[row],
                arrays.witnesses[row] if arrays.witnesses is not None else None,
                update_count=int(arrays.update_counts[row]),
            )
            if arrays.degrees[row]:
                degree_table._counts[vertex] = int(arrays.degrees[row])
        return predictor

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
        property the test-suite pins.

        Raises :class:`SketchStateError` for mismatched configurations
        and :class:`ConfigurationError` for Count-Min degree mode
        (conservative Count-Min tables are not mergeable — see
        :meth:`repro.sketches.countmin.CountMin.merge`).
        """
        if other.config != self.config:
            raise SketchStateError(
                "can only merge predictors with identical configurations "
                f"(got {self.config} vs {other.config})"
            )
        self.config.require_mergeable()
        merged = MinHashLinkPredictor(self.config)
        for vertex, sketch in self._sketches.items():
            other_sketch = other._sketches.get(vertex)
            merged._sketches[vertex] = (
                sketch.copy() if other_sketch is None else sketch.merge(other_sketch)
            )
        for vertex, sketch in other._sketches.items():
            if vertex not in self._sketches:
                merged._sketches[vertex] = sketch.copy()
        merged._degrees.merge_from(self._degrees)
        merged._degrees.merge_from(other._degrees)
        return merged

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def nominal_bytes(self) -> int:
        sketch_bytes = sum(s.nominal_bytes() for s in self._sketches.values())
        return sketch_bytes + self._degrees.nominal_bytes()

    def bytes_per_vertex(self) -> float:
        """Average packed bytes per sketched vertex (0 if none yet)."""
        if not self._sketches:
            return 0.0
        return self.nominal_bytes() / len(self._sketches)

    def __repr__(self) -> str:
        return (
            f"MinHashLinkPredictor(k={self.config.k}, "
            f"vertices={len(self._sketches)}, "
            f"witnesses={self.config.track_witnesses})"
        )


def merge_shards(shards: "list[MinHashLinkPredictor]") -> MinHashLinkPredictor:
    """Reduce shard predictors into one (the parallel-ingest join step).

    Folds left-to-right through :meth:`MinHashLinkPredictor.merge`, so
    slot ties (two shards holding the same minimum) resolve in shard
    order — the same witness a serial pass would have kept, since a
    serial stream presents the lower-offset arrival first only when
    hash values genuinely tie, which `merge` breaks identically for any
    association order.  Raises :class:`~repro.errors.ConfigurationError`
    on an empty shard list or a non-mergeable configuration, and
    :class:`~repro.errors.SketchStateError` on mismatched shard configs.
    """
    if not shards:
        raise ConfigurationError("merge_shards needs at least one shard predictor")
    merged = shards[0]
    for shard in shards[1:]:
        merged = merged.merge(shard)
    return merged
