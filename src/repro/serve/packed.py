"""Contiguous sketch matrices: the data layout of the batch kernel.

A live :class:`~repro.core.predictor.MinHashLinkPredictor` keeps its
sketches in growable matrices, rows in arrival order, that the stream
keeps writing.  :class:`PackedSketches` snapshots that state into the
frozen, sorted layout the vectorized kernel wants:

* ``values`` — ``uint64 (n, k)``: row ``i`` is vertex
  ``vertex_ids[i]``'s slot minima,
* ``witnesses`` — ``int64 (n, k)`` (or ``None`` without witness
  tracking),
* ``degrees`` — ``int64 (n,)``, as believed by the predictor's tracker
  at pack time,
* ``vertex_ids`` — sorted ``int64 (n,)``, so vertex→row resolution is
  one :func:`numpy.searchsorted` for a whole batch.

The pack is a *frozen snapshot*: stream updates applied to the
predictor after packing are not reflected until
:meth:`QueryEngine.refresh <repro.serve.engine.QueryEngine.refresh>`
re-packs.  That is the intended serving discipline — the write path
and the read path share nothing mutable, so neither can stall the
other.  The pack holds these arrays and nothing derived from them: the
kernel resolves witness degrees per query, so a served generation
costs :meth:`~PackedSketches.nominal_bytes` and no per-measure cache.
"""

from __future__ import annotations

import hashlib
import time
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.config import SketchConfig
from repro.core.predictor import (
    MinHashLinkPredictor,
    SketchArrays,
    fold_sketch_arrays,
    mergeable_config,
)
from repro.errors import SketchStateError

__all__ = ["PackedSketches"]

VertexBatch = Union[Sequence[int], np.ndarray]


class PackedSketches(object):
    """A predictor's sketches as one contiguous matrix per component.

    Build with :meth:`from_predictor` (copies: the predictor may keep
    streaming) or straight from a checkpoint with :meth:`from_arrays`.
    """

    __slots__ = (
        "vertex_ids",
        "values",
        "witnesses",
        "degrees",
        "update_counts",
        "k",
        "seed",
        "pack_seconds",
    )

    def __init__(
        self,
        vertex_ids: np.ndarray,
        values: np.ndarray,
        witnesses: Optional[np.ndarray],
        degrees: np.ndarray,
        update_counts: np.ndarray,
        *,
        k: int,
        seed: int,
        pack_seconds: float = 0.0,
    ) -> None:
        if values.shape != (len(vertex_ids), k):
            raise SketchStateError(
                f"values matrix has shape {values.shape}, "
                f"expected ({len(vertex_ids)}, {k})"
            )
        if witnesses is not None and witnesses.shape != values.shape:
            raise SketchStateError(
                f"witnesses matrix has shape {witnesses.shape}, "
                f"expected {values.shape}"
            )
        self.vertex_ids = vertex_ids
        self.values = values
        self.witnesses = witnesses
        self.degrees = degrees
        self.update_counts = update_counts
        self.k = k
        self.seed = seed
        self.pack_seconds = pack_seconds

    @classmethod
    def from_arrays(
        cls, arrays: SketchArrays, config: SketchConfig, *, pack_seconds: float = 0.0
    ) -> "PackedSketches":
        """Adopt exported arrays (e.g. a verified checkpoint's) as they are."""
        return cls(
            arrays.vertex_ids,
            arrays.values,
            arrays.witnesses,
            arrays.degrees,
            arrays.update_counts,
            k=config.k,
            seed=config.seed,
            pack_seconds=pack_seconds,
        )

    @classmethod
    def from_predictor(cls, predictor: MinHashLinkPredictor) -> "PackedSketches":
        """Snapshot a predictor into packed form (timed; see
        :attr:`pack_seconds`)."""
        # Wall time feeds only the pack_seconds telemetry field, never
        # the packed arrays; the bit-identity contract is unaffected.
        started = time.perf_counter()  # repro-lint: disable=RL001
        exported = predictor.export_arrays()
        # Telemetry field only; see the note on `started` above.
        elapsed = time.perf_counter() - started  # repro-lint: disable=RL001
        return cls.from_arrays(exported, predictor.config, pack_seconds=elapsed)

    @classmethod
    def from_shards(cls, shards: Sequence) -> "PackedSketches":
        """Pack the union of shard states (the serving-side join of
        parallel ingestion): **bit-identical** to
        ``from_predictor(merge_shards(shards))``, through the same fold
        (:func:`~repro.core.predictor.fold_sketch_arrays`).  A shard is a
        predictor or a :class:`~repro.core.persistence.VerifiedCheckpoint`,
        and all shards share one mergeable configuration (see
        :func:`~repro.core.predictor.mergeable_config`).
        """
        # Telemetry only, as in from_predictor.
        started = time.perf_counter()  # repro-lint: disable=RL001
        config = mergeable_config(shards)
        merged = fold_sketch_arrays((shard.export_arrays() for shard in shards), config)
        return cls.from_arrays(
            merged.export_arrays(),
            config,
            # Telemetry field only; see the note on `started` above.
            pack_seconds=time.perf_counter() - started,  # repro-lint: disable=RL001
        )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_ids)

    def rows_of(self, vertices: VertexBatch) -> np.ndarray:
        """Rows of a batch of vertex ids; ``-1`` marks unseen vertices.

        The ``-1`` sentinel is how the unseen-vertex policy flows
        through the kernel: unseen rows are masked out and score 0.0
        for every measure, mirroring the per-pair path.
        """
        ids = np.atleast_1d(np.asarray(vertices, dtype=np.int64))
        if self.n_vertices == 0:
            return np.full(ids.shape, -1, dtype=np.int64)
        positions = np.searchsorted(self.vertex_ids, ids)
        positions = np.minimum(positions, self.n_vertices - 1)
        found = self.vertex_ids[positions] == ids
        return np.where(found, positions, np.int64(-1))

    def row_of(self, vertex: int) -> int:
        """Row of one vertex id, or ``-1`` if unseen."""
        return int(self.rows_of(np.array([vertex], dtype=np.int64))[0])

    def degrees_of(self, vertices: VertexBatch) -> np.ndarray:
        """Degrees for a batch of vertex ids (0 for unseen vertices).

        Used by the witness-sum kernel to resolve the witnesses of a
        chunk's matched slots, per query: a witness is always a vertex
        that appeared as a stream endpoint, and the 0-default keeps the
        lookup total for any id.
        """
        rows = self.rows_of(vertices)
        if self.n_vertices == 0:
            return np.zeros(rows.shape, dtype=np.int64)
        return np.where(rows >= 0, self.degrees[np.maximum(rows, 0)], np.int64(0))

    def fingerprint(self) -> str:
        """sha256 hex digest over every packed array.

        Two stores share a fingerprint iff their matrices are
        bit-identical, so this is the serving tier's *generation
        identity*: every response of the HTTP server carries the
        fingerprint of the store that answered it, and a reader that
        ever saw scores from one generation tagged with another
        generation's fingerprint has witnessed a torn hot-swap (the
        atomicity suite and ``bench_e17_serving`` assert this never
        happens).  Mirrors
        :func:`repro.stream.casebook.sketch_fingerprint` on the ingest
        side, but over the packed layout.
        """
        digest = hashlib.sha256()
        for array in (self.vertex_ids, self.values, self.degrees, self.update_counts):
            digest.update(memoryview(np.ascontiguousarray(array)))
        if self.witnesses is not None:
            digest.update(memoryview(np.ascontiguousarray(self.witnesses)))
        return digest.hexdigest()

    def to_predictor(self) -> MinHashLinkPredictor:
        """Reconstruct a live predictor from the packed snapshot.

        The inverse of :meth:`from_predictor` (exact-degree
        configurations only — the pack does not carry Count-Min
        tables): the result answers every query identically to the
        predictor that was packed, and round-trips back to an equal
        :meth:`fingerprint`.  This is how the serving benchmark
        recomputes scores *offline* for a generation it only knows as
        packed arrays.
        """
        config = SketchConfig(
            k=self.k, seed=self.seed, track_witnesses=self.witnesses is not None
        )
        arrays = (self.vertex_ids, self.values, self.witnesses, self.update_counts, self.degrees)
        return fold_sketch_arrays([SketchArrays(*arrays)], config)  # copies: the pack stays frozen

    def nominal_bytes(self) -> int:
        """Packed size of every array the pack holds (the serving-tier
        memory cost)."""
        arrays = (self.vertex_ids, self.values, self.witnesses, self.degrees, self.update_counts)
        return sum(array.nbytes for array in arrays if array is not None)

    def __repr__(self) -> str:
        return (
            f"PackedSketches(vertices={self.n_vertices}, k={self.k}, "
            f"witnesses={self.witnesses is not None})"
        )
