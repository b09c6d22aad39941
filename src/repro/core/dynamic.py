"""The fully dynamic (deletion-tolerant) streaming link predictor.

:class:`MinHashLinkPredictor` is append-only: its per-vertex k-mins
sketches are monotone folds, so a retracted edge can never leave them,
and on churning streams the structure drifts away from the live graph
(experiment E11c measures exactly this).  This module is the dynamic
counterpart the fully-dynamic literature calls for: per vertex, a
:class:`~repro.sketches.dynamic.DynamicKMinHash` — a counter-backed
account of arrivals and retractions — from which an ordinary
:class:`~repro.sketches.minhash.KMinHash` view of the *live* neighbor
set is materialized on demand.  Every query therefore reflects adds,
deletes, and (with ``SketchConfig.ttl > 0``) TTL expiry against the
stream's high-water timestamp.  A query scores the two materialized
live rows, with live degrees, through
:func:`~repro.core.estimators.score_rows`, the per-pair estimator the
append-only predictor uses.

The merge algebra is a ℤ-module (counts add, last-seen times max), so
sharded ingestion with deletes stays exact: serial and merge-folded
states export **bit-identical** arrays, under any interleaving of adds
and deletes — the property the hypothesis suite pins.

Time is always *stream* time (record timestamps); the predictor tracks
the high-water mark of everything it has consumed and never consults a
wall clock, so TTL expiry replays bit-identically from checkpoints.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, NamedTuple, Optional

import numpy as np

from repro.core.block import apply_dynamic_block
from repro.core.config import SketchConfig
from repro.core.estimators import rows_jaccard, score_rows
from repro.core.predictor import PairEstimate, SketchArrays
from repro.errors import ConfigurationError, SketchStateError
from repro.exact.measures import measure_by_name
from repro.graph.stream import StreamRecord
from repro.hashing import HashBank
from repro.interface import LinkPredictor
from repro.sketches.dynamic import DynamicKMinHash

__all__ = ["DynamicMinHashPredictor", "DynamicArrays", "merge_dynamic_shards"]

#: High-water sentinel meaning "no timestamp consumed yet".
_NO_TIME = float("-inf")


class DynamicArrays(NamedTuple):
    """A dynamic predictor's entire counter state as contiguous arrays.

    The checkpoint surface (:mod:`repro.core.persistence`): a CSR-style
    layout over per-vertex neighbor accounts.  Vertex ``vertex_ids[i]``
    owns entries ``indptr[i]:indptr[i+1]`` of the three parallel entry
    arrays, with entry keys sorted ascending inside each vertex — the
    canonical serialization order, so equal states produce equal bytes.
    """

    #: Sorted vertex ids, ``int64 (n,)``.
    vertex_ids: np.ndarray
    #: CSR row pointers, ``int64 (n + 1,)``.
    indptr: np.ndarray
    #: Neighbor keys, ``int64 (e,)``.
    keys: np.ndarray
    #: Signed live counts, ``int64 (e,)``.
    counts: np.ndarray
    #: Last-seen stream times, ``float64 (e,)``.
    last_seen: np.ndarray
    #: Per-vertex operation counters, ``int64 (n,)``.
    op_counts: np.ndarray
    #: Stream high-water timestamp (``-inf`` if none consumed).
    high_water: float


class DynamicMinHashPredictor(LinkPredictor):
    """Deletion-tolerant MinHash streaming link predictor.

    Parameters
    ----------
    config:
        A :class:`~repro.core.config.SketchConfig`; ``dynamic_mode`` is
        forced on (constructing this class *is* the opt-in), and a
        positive ``ttl`` additionally expires neighbors idle for longer
        than ``ttl`` stream-time units.

    Notes
    -----
    ``update``/``delete`` accept an optional stream timestamp; the
    predictor's notion of "now" is the high-water mark over everything
    consumed, so liveness is a pure function of the ingested records.
    Deleting an edge that was never added leaves a negative counter —
    deliberate, so shard merges commute; the stream guard is the layer
    that quarantines such deletes on guarded pipelines.
    """

    method_name = "dynamic"

    __slots__ = ("config", "bank", "_sketches", "_high_water")

    def __init__(self, config: Optional[SketchConfig] = None) -> None:
        base = config or SketchConfig()
        if not base.dynamic_mode:
            base = replace(base, dynamic_mode=True)
        self.config = base
        self.bank = HashBank(self.config.seed, self.config.k)
        self._sketches: Dict[int, DynamicKMinHash] = {}
        self._high_water = _NO_TIME

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def _sketch_of(self, vertex: int) -> DynamicKMinHash:
        sketch = self._sketches.get(vertex)
        if sketch is None:
            sketch = DynamicKMinHash(
                self.bank, track_witnesses=self.config.track_witnesses
            )
            self._sketches[vertex] = sketch
        return sketch

    def _observe_time(self, timestamp: float) -> None:
        if timestamp > self._high_water:
            self._high_water = timestamp

    def _check_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ConfigurationError(f"self-loop on vertex {u} is not allowed")
        if u < 0 or v < 0:
            raise ConfigurationError(
                f"vertex ids must be non-negative, got ({u}, {v})"
            )

    def update(self, u: int, v: int, timestamp: float = 0.0) -> None:
        """Consume one edge arrival ``{u, v}`` at stream time
        ``timestamp`` (``O(1)`` counter work; hashing is deferred to
        query-time materialization)."""
        self._check_edge(u, v)
        self._sketch_of(u).add(v, timestamp)
        self._sketch_of(v).add(u, timestamp)
        self._observe_time(timestamp)

    def delete(self, u: int, v: int, timestamp: float = 0.0) -> None:
        """Consume one edge retraction of ``{u, v}``.

        Exact inverse of :meth:`update` on the counter algebra: after a
        matched add/delete pair the live neighbor sets — and therefore
        every score — are as if the edge never arrived.
        """
        self._check_edge(u, v)
        self._sketch_of(u).remove(v, timestamp)
        self._sketch_of(v).remove(u, timestamp)
        self._observe_time(timestamp)

    def apply(self, record: StreamRecord) -> None:
        """Consume one typed :class:`~repro.graph.stream.StreamRecord`."""
        if record.op == "add":
            self.update(record.u, record.v, record.timestamp)
        elif record.op == "delete":
            self.delete(record.u, record.v, record.timestamp)
        else:
            raise ConfigurationError(f"unknown stream op {record.op!r}")

    def update_block(self, us, vs, timestamps=None, sides=None) -> int:
        """Consume a whole arrival batch through the batched kernel —
        equal to the scalar loop for any arrival order (counter addition
        commutes).  ``sides`` applies only some arrivals of each edge,
        as for :meth:`MinHashLinkPredictor.update_block
        <repro.core.predictor.MinHashLinkPredictor.update_block>`.
        Returns the number of edges applied."""
        return apply_dynamic_block(self, us, vs, timestamps, "add", sides)

    def delete_block(self, us, vs, timestamps=None, sides=None) -> int:
        """Consume a whole retraction batch through the batched kernel
        (the delete path of :func:`~repro.core.block.apply_dynamic_block`)."""
        return apply_dynamic_block(self, us, vs, timestamps, "delete", sides)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """The stream high-water timestamp (0.0 before any record)."""
        return self._high_water if self._high_water > _NO_TIME else 0.0

    def degree(self, vertex: int) -> int:
        """The vertex's *live* degree: adds minus deletes, minus TTL
        expiries, at the current high-water time.  0 for unseen."""
        sketch = self._sketches.get(vertex)
        if sketch is None:
            return 0
        return sketch.live_degree(self.now, self.config.ttl)

    @property
    def vertex_count(self) -> int:
        """Vertices with any accounted activity (live or not)."""
        return len(self._sketches)

    def _live_rows(self, u: int, v: int) -> Optional[tuple]:
        """The pair's materialized live ``(values_u, values_v,
        witnesses_u)`` rows, or ``None`` if either endpoint has no
        account."""
        su = self._sketches.get(u)
        sv = self._sketches.get(v)
        if su is None or sv is None:
            return None
        now, ttl = self.now, self.config.ttl
        live_u, live_v = su.materialize(now, ttl), sv.materialize(now, ttl)
        return live_u.values, live_v.values, live_u.witnesses

    def jaccard(self, u: int, v: int) -> float:
        """MinHash estimate of ``J`` over the *live* neighbor sets."""
        rows = self._live_rows(u, v)
        return 0.0 if rows is None else rows_jaccard(rows[0], rows[1], self.config.k)

    def score(self, u: int, v: int, measure_name: str) -> float:
        """Estimate any registered measure against the live graph.

        Same unseen-vertex policy as the append-only predictor: either
        endpoint never active (or no longer live) scores 0.0; queries
        never raise ``KeyError``.
        """
        measure = measure_by_name(measure_name)
        rows = self._live_rows(u, v)
        if rows is None:
            return 0.0
        return score_rows(
            measure, *rows, self.degree(u), self.degree(v), self.degree, self.config.k
        )

    def estimate(self, u: int, v: int) -> PairEstimate:
        """All paper measures for one pair over the live graph.  As for
        the append-only predictor, an endpoint with no account scores
        0.0 and each degree field is that endpoint's live degree."""
        return PairEstimate.from_rows(
            u, v, self._live_rows(u, v), self.degree(u), self.degree(v), self.degree,
            self.config.k,
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def export_arrays(self) -> SketchArrays:
        """Materialized live state in the standard
        :class:`~repro.core.predictor.SketchArrays` layout.

        Every consumer of the append-only export surface — fingerprints,
        the packed query engine, reports — works unchanged on a dynamic
        predictor: rows are the materialized live sketches at the
        current high-water time, ``update_counts`` carry operation
        counts, and ``degrees`` are live degrees.  A pure function of
        the counter state, so serial and shard-merged predictors export
        identical bytes.
        """
        vertex_ids = np.array(sorted(self._sketches), dtype=np.int64)
        n = len(vertex_ids)
        k = self.config.k
        track = self.config.track_witnesses
        now = self.now
        ttl = self.config.ttl
        values = np.empty((n, k), dtype=np.uint64)
        witnesses = np.empty((n, k), dtype=np.int64) if track else None
        update_counts = np.empty(n, dtype=np.int64)
        degrees = np.empty(n, dtype=np.int64)
        for row, vertex in enumerate(vertex_ids.tolist()):
            sketch = self._sketches[vertex]
            view = sketch.materialize(now, ttl)
            values[row] = view.values
            if witnesses is not None:
                witnesses[row] = view.witnesses
            update_counts[row] = sketch.op_count
            degrees[row] = sketch.live_degree(now, ttl)
        return SketchArrays(vertex_ids, values, witnesses, update_counts, degrees)

    def export_dynamic_arrays(self) -> DynamicArrays:
        """The raw counter state as CSR arrays (the checkpoint surface).

        Lossless, unlike :meth:`export_arrays`: restoring from these
        arrays reproduces the predictor exactly, including dead and
        negative counters that future merges may still need.
        """
        vertex_ids = np.array(sorted(self._sketches), dtype=np.int64)
        n = len(vertex_ids)
        indptr = np.zeros(n + 1, dtype=np.int64)
        op_counts = np.empty(n, dtype=np.int64)
        chunks_keys = []
        chunks_counts = []
        chunks_seen = []
        for row, vertex in enumerate(vertex_ids.tolist()):
            sketch = self._sketches[vertex]
            entries = list(sketch.items())
            indptr[row + 1] = indptr[row] + len(entries)
            op_counts[row] = sketch.op_count
            chunks_keys.extend(entry[0] for entry in entries)
            chunks_counts.extend(entry[1] for entry in entries)
            chunks_seen.extend(entry[2] for entry in entries)
        return DynamicArrays(
            vertex_ids=vertex_ids,
            indptr=indptr,
            keys=np.array(chunks_keys, dtype=np.int64),
            counts=np.array(chunks_counts, dtype=np.int64),
            last_seen=np.array(chunks_seen, dtype=np.float64),
            op_counts=op_counts,
            high_water=self._high_water,
        )

    @classmethod
    def from_dynamic_arrays(
        cls, config: SketchConfig, arrays: DynamicArrays
    ) -> "DynamicMinHashPredictor":
        """Rebuild a predictor from :meth:`export_dynamic_arrays` output
        (the checkpoint restore path); exact inverse of the export."""
        predictor = cls(config)
        vertex_ids = arrays.vertex_ids.tolist()
        indptr = arrays.indptr.tolist()
        keys = arrays.keys.tolist()
        counts = arrays.counts.tolist()
        last_seen = arrays.last_seen.tolist()
        op_counts = arrays.op_counts.tolist()
        for row, vertex in enumerate(vertex_ids):
            sketch = DynamicKMinHash(
                predictor.bank, track_witnesses=predictor.config.track_witnesses
            )
            for position in range(indptr[row], indptr[row + 1]):
                sketch._entries[keys[position]] = [
                    counts[position],
                    last_seen[position],
                ]
            sketch.op_count = op_counts[row]
            predictor._sketches[vertex] = sketch
        predictor._high_water = arrays.high_water
        return predictor

    # ------------------------------------------------------------------
    # Distribution
    # ------------------------------------------------------------------

    def merge(self, other: "DynamicMinHashPredictor") -> "DynamicMinHashPredictor":
        """Combine two shard predictors (new object).

        Per-vertex counter merges are a ℤ-module sum — commutative and
        associative under *any* interleaving of adds and deletes across
        shards, even when a delete lands on a different shard than its
        add (the counter simply passes through a negative excursion
        until both merge in).  High-water times max.  The merged state
        exports bit-identically to a serial pass over the concatenated
        stream — the property the hypothesis suite pins.
        """
        if other.config != self.config:
            raise SketchStateError(
                "can only merge predictors with identical configurations "
                f"(got {self.config} vs {other.config})"
            )
        merged = DynamicMinHashPredictor(self.config)
        for vertex, sketch in self._sketches.items():
            other_sketch = other._sketches.get(vertex)
            merged._sketches[vertex] = (
                sketch.copy() if other_sketch is None else sketch.merge(other_sketch)
            )
        for vertex, sketch in other._sketches.items():
            if vertex not in self._sketches:
                merged._sketches[vertex] = sketch.copy()
        merged._high_water = max(self._high_water, other._high_water)
        return merged

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def compact(self) -> int:
        """Drop counter entries that can no longer affect any
        materialization (zero counts; expired ones under a TTL).  Call
        on sealed states only — post-merge, pre-checkpoint — since a
        future merge could resurrect a dropped key.  Returns entries
        dropped; vertices left with no entries are removed entirely."""
        now = self.now
        ttl = self.config.ttl
        dropped = 0
        empty = []
        for vertex in sorted(self._sketches):
            sketch = self._sketches[vertex]
            dropped += sketch.compact(now, ttl)
            if sketch.entry_count() == 0:
                empty.append(vertex)
        for vertex in empty:
            del self._sketches[vertex]
        return dropped

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def nominal_bytes(self) -> int:
        return sum(s.nominal_bytes() for s in self._sketches.values()) + 8

    def entry_count(self) -> int:
        """Total accounted ``(vertex, neighbor)`` entries (live or not)."""
        return sum(s.entry_count() for s in self._sketches.values())

    def __repr__(self) -> str:
        return (
            f"DynamicMinHashPredictor(k={self.config.k}, "
            f"vertices={len(self._sketches)}, ttl={self.config.ttl}, "
            f"entries={self.entry_count()})"
        )


def merge_dynamic_shards(
    shards: "list[DynamicMinHashPredictor]",
) -> DynamicMinHashPredictor:
    """Reduce dynamic shard predictors into one (any fold order gives
    the same state — the merge is commutative and associative).  Raises
    :class:`~repro.errors.ConfigurationError` on an empty list."""
    if not shards:
        raise ConfigurationError("merge_dynamic_shards needs at least one shard")
    merged = shards[0]
    for shard in shards[1:]:
        merged = merged.merge(shard)
    return merged
