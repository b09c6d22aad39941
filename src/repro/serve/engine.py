"""The batch query engine: the library's serving tier.

:class:`QueryEngine` wraps a (frozen or still-streaming) predictor
with the three things a query server needs:

* **throughput** — :meth:`QueryEngine.score_many` answers a whole pair
  batch per NumPy dispatch through the packed kernel (internally
  chunked, so a ten-million-pair file cannot exhaust memory),
* **candidate generation** — :meth:`QueryEngine.top_k` finds a
  vertex's best partners by pruning through the LSH banding index of
  :mod:`repro.core.lshindex` and exact-sketch rescoring only the
  survivors; the default ``rows=1`` banding is *exact-recall* (a
  vertex is a candidate iff it shares at least one slot, i.e. iff
  ``Ĵ > 0``), so the pruned top-k equals the brute-force top-k while
  scoring far fewer candidates,
* **observability** — :meth:`QueryEngine.stats` is a flat dict of
  per-stage counters and timings (pack time, index build time,
  candidates pruned, scores/sec), mirroring
  :meth:`StreamRunner.stats <repro.stream.runner.StreamRunner.stats>`
  on the write path.

The engine snapshots the predictor at construction, and the candidate
index is built from that snapshot, never from the live predictor; call
:meth:`refresh` after further stream updates to serve the newer state.
Scores agree with the per-pair ``predictor.score`` path measure-for-
measure, including the unseen-vertex policy (0.0 everywhere, never a
``KeyError``).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.block import SLAB_PAIRS
from repro.core.lshindex import LshCandidateIndex
from repro.core.predictor import MinHashLinkPredictor
from repro.errors import ConfigurationError
from repro.exact.measures import Measure, measure_by_name
from repro.obs.registry import MetricsRegistry
from repro.serve.kernels import score_pairs_packed
from repro.serve.packed import PackedSketches

__all__ = ["QueryEngine"]

PairBatch = Union[Sequence[Tuple[int, int]], np.ndarray]


class QueryEngine(object):
    """Batch measure queries over a predictor's packed sketches.

    Most applications reach this through the facade —
    :func:`repro.api.open_engine` also accepts saved ``.npz`` snapshots
    and (serial or sharded) checkpoint directories; direct construction
    stays supported and identical for a warm predictor.

    Parameters
    ----------
    predictor:
        The warm :class:`MinHashLinkPredictor` to serve from, packed
        (snapshotted) immediately; or a :class:`PackedSketches` served
        as is (:attr:`predictor` is then ``None``).
    bands / rows:
        Banding shape for the ``top_k`` candidate index.  The default
        (``rows=1``, ``bands=k``) gives exact recall — pruning never
        changes the answer, only the work.  Narrower shapes (e.g. from
        :func:`~repro.core.lshindex.bands_for_threshold`) prune harder
        at the documented S-curve recall; pass them when approximate
        top-k is acceptable.
    min_degree:
        Vertices below this degree are left out of the candidate index
        (``1`` by default: every sketched vertex is indexed, keeping
        the exact-recall guarantee).
    batch_size:
        ``score_many`` chunk size in pairs; the default is the write
        path's slab, :data:`~repro.core.block.SLAB_PAIRS` (1024).  A
        chunk's scratch is ~20 bytes per (pair, slot): one ``uint64``
        gather of both sides' rows and the match masks, plus, for
        witness-sum measures, one ``float64`` row per pair with a matched
        slot — ~1.3 MiB at k=64.  It is freed with the chunk, so the
        engine holds nothing between calls.
    metrics:
        The :class:`~repro.obs.registry.MetricsRegistry` holding the
        engine's instruments (the ``query_*`` family); default a fresh
        enabled registry.  :meth:`stats` reads these instruments, so
        the legacy dict and any Prometheus/JSON export of
        :attr:`metrics` always agree.
    clock:
        Injectable monotonic clock (tests).
    """

    def __init__(
        self,
        predictor: Union[MinHashLinkPredictor, PackedSketches],
        *,
        bands: Optional[int] = None,
        rows: Optional[int] = None,
        min_degree: int = 1,
        batch_size: int = SLAB_PAIRS,
        metrics: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if (bands is None) != (rows is None):
            raise ConfigurationError(
                "bands and rows must be given together (or both left default)"
            )
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
        if isinstance(predictor, PackedSketches):
            self.predictor: Optional[MinHashLinkPredictor] = None
            self.store = predictor
        else:
            self.predictor = predictor
            self.store = PackedSketches.from_predictor(predictor)
        self.bands = bands if bands is not None else self.store.k
        self.rows = rows if rows is not None else 1
        self.min_degree = min_degree
        self.batch_size = batch_size
        self.clock = clock
        self._index: Optional[LshCandidateIndex] = None
        self._index_seconds = 0.0
        #: The instrument namespace behind stats() and the exporters.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Counters (lifetime of one served snapshot, reset by refresh()).
        self._m_batches = self.metrics.counter(
            "query_batches_total", "score_many() calls served"
        )
        self._m_pairs = self.metrics.counter(
            "query_pairs_scored_total", "Pairs scored through the packed kernel"
        )
        self._m_topk = self.metrics.counter(
            "query_topk_total", "top_k() queries served"
        )
        self._m_candidates = self.metrics.counter(
            "query_candidates_total",
            "top_k candidates, by whether LSH pruning kept or pruned them",
            labelnames=("disposition",),
        )
        self._m_candidates_scored = self._m_candidates.labels("scored")
        self._m_candidates_pruned = self._m_candidates.labels("pruned")
        self._m_scoring_seconds = self.metrics.counter(
            "query_scoring_seconds_total", "Wall seconds inside the scoring kernel"
        )
        self._m_scoring_seconds.inc(0.0)  # stats() reports a float even when idle
        self._m_batch_seconds = self.metrics.histogram(
            "query_batch_seconds", "Wall seconds per score_many() call"
        )
        # Read-time gauges over the packed snapshot and the LSH index.
        self.metrics.gauge(
            "query_store_vertices", "Vertices in the packed snapshot"
        ).set_function(lambda: self.store.n_vertices)
        self.metrics.gauge(
            "query_store_bytes", "Nominal bytes of the packed matrices"
        ).set_function(lambda: self.store.nominal_bytes())
        self.metrics.gauge(
            "query_index_bytes", "Bytes held by the LSH candidate index (0 until built)"
        ).set_function(lambda: self._index.nbytes() if self._index else 0)
        self.metrics.gauge(
            "query_pack_seconds", "Wall seconds the last pack took"
        ).set_function(lambda: self.store.pack_seconds)
        self.metrics.gauge(
            "query_index_build_seconds", "Wall seconds the last LSH index build took"
        ).set_function(lambda: self._index_seconds)
        self.metrics.gauge(
            "query_index_buckets", "Buckets in the LSH candidate index (0 until built)"
        ).set_function(lambda: self._index.bucket_count() if self._index else 0)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def refresh(self) -> None:
        """Re-pack the predictor's current state (and rebuild the
        candidate index lazily on the next ``top_k``).  Counters reset:
        they describe one served snapshot."""
        if self.predictor is not None:
            self.store = PackedSketches.from_predictor(self.predictor)
        self._index = None
        self._index_seconds = 0.0
        for instrument in (
            self._m_batches,
            self._m_pairs,
            self._m_topk,
            self._m_candidates,
            self._m_scoring_seconds,
            self._m_batch_seconds,
        ):
            instrument.reset()

    def _ensure_index(self) -> LshCandidateIndex:
        if self._index is None:
            started = self.clock()
            self._index = LshCandidateIndex(
                self.store,
                bands=self.bands,
                rows=self.rows,
                min_degree=self.min_degree,
            )
            self._index_seconds = self.clock() - started
        return self._index

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def score_many(self, pairs: PairBatch, measure_name: str = "jaccard") -> np.ndarray:
        """Scores for a batch of ``(u, v)`` pairs, ``float64 (m,)``.

        Row ``i`` of the result is exactly what
        ``predictor.score(pairs[i][0], pairs[i][1], measure_name)``
        would return against the packed snapshot (the consistency suite
        pins the equality).  Accepts any sequence of pairs or an
        ``(m, 2)`` integer array; an empty batch returns an empty
        array.
        """
        measure = measure_by_name(measure_name)
        array = np.asarray(pairs, dtype=np.int64)
        if array.size == 0:
            return np.zeros(0, dtype=np.float64)
        if array.ndim != 2 or array.shape[1] != 2:
            raise ConfigurationError(
                f"pairs must be an (m, 2) batch, got shape {array.shape}"
            )
        started = self.clock()
        out = np.empty(len(array), dtype=np.float64)
        for lo in range(0, len(array), self.batch_size):
            chunk = array[lo : lo + self.batch_size]
            out[lo : lo + len(chunk)] = score_pairs_packed(
                self.store, chunk[:, 0], chunk[:, 1], measure
            )
        elapsed = self.clock() - started
        self._m_scoring_seconds.inc(elapsed)
        self._m_batch_seconds.observe(elapsed)
        self._m_batches.inc()
        self._m_pairs.inc(len(array))
        return out

    def score(self, u: int, v: int, measure_name: str = "jaccard") -> float:
        """Single-pair convenience over :meth:`score_many`."""
        return float(self.score_many(np.array([[u, v]], dtype=np.int64), measure_name)[0])

    def top_k(
        self,
        u: int,
        measure_name: str = "jaccard",
        k: int = 10,
        *,
        prune: Optional[bool] = None,
    ) -> List[Tuple[int, float]]:
        """The ``k`` best-scoring partners of ``u``, descending.

        Only vertices with a strictly positive score are returned (a
        zero score means "no evidence", which is not a recommendation),
        so the result may be shorter than ``k``.  Ties break on the
        ascending vertex id, matching
        :meth:`~repro.interface.LinkPredictor.rank_candidates`.

        ``prune`` selects candidate generation: ``True`` consults the
        LSH index (built lazily on first use, from the packed snapshot),
        ``False`` scores every packed vertex, ``None`` (default) prunes
        for every measure except ``preferential_attachment`` — a degree
        product is positive for *any* warm pair, so bucket pruning would
        be wrong there and the engine falls back to brute force.

        An unseen ``u`` returns ``[]`` (the unseen-vertex policy).
        """
        measure = measure_by_name(measure_name)
        if k < 1:
            raise ConfigurationError(f"k must be positive, got {k}")
        if prune is None:
            prune = measure.kind != "degree_product"
        if prune and measure.kind == "degree_product":
            raise ConfigurationError(
                f"measure {measure.name!r} scores pairs with no sketch overlap; "
                "LSH pruning would drop true candidates — call with prune=False"
            )
        self._m_topk.inc()
        if self.store.row_of(u) < 0:
            return []
        brute_pool = self.store.n_vertices - 1  # everyone but u itself
        if prune:
            candidates = self._ensure_index().candidates_of(u)
        else:
            candidates = self.store.vertex_ids[self.store.vertex_ids != u]
        self._m_candidates_scored.inc(len(candidates))
        self._m_candidates_pruned.inc(brute_pool - len(candidates))
        if len(candidates) == 0:
            return []
        scores = self.score_many(
            np.column_stack([np.full(len(candidates), u, dtype=np.int64), candidates]),
            measure_name,
        )
        positive = np.flatnonzero(scores > 0.0)
        order = positive[np.lexsort((candidates[positive], -scores[positive]))][:k]
        return [(int(candidates[i]), float(scores[i])) for i in order]

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Engine health as a flat dict (the serving-side monitoring
        surface, mirroring ``StreamRunner.stats()`` on the write side).

        Every counter is a *read* of the shared
        :class:`~repro.obs.registry.MetricsRegistry`, so this dict and
        any Prometheus/JSON export of :attr:`metrics` always agree.
        The returned dict is a defensive snapshot — mutate it freely.
        """
        seconds = self._m_scoring_seconds.value
        pairs = int(self._m_pairs.value)
        return {
            "vertices": self.store.n_vertices,
            "k": self.store.k,
            "packed_bytes": self.store.nominal_bytes(),
            "pack_seconds": self.store.pack_seconds,
            "index_bands": self.bands,
            "index_rows": self.rows,
            "index_built": self._index is not None,
            "index_build_seconds": self._index_seconds,
            "index_buckets": self._index.bucket_count() if self._index else 0,
            "index_bytes": self._index.nbytes() if self._index else 0,
            "batches": int(self._m_batches.value),
            "pairs_scored": pairs,
            "topk_queries": int(self._m_topk.value),
            "candidates_scored": int(self._m_candidates_scored.value),
            "candidates_pruned": int(self._m_candidates_pruned.value),
            "scoring_seconds": seconds,
            "scores_per_second": (pairs / seconds) if seconds > 0 else 0.0,
        }

    def __repr__(self) -> str:
        return (
            f"QueryEngine(vertices={self.store.n_vertices}, k={self.store.k}, "
            f"banding={self.bands}x{self.rows})"
        )
