"""The streaming link-predictor protocol.

Everything the evaluation harness compares — the paper's MinHash
predictors, the exact oracle, and the sampling baselines — speaks this
one interface, so experiments swap methods by constructing a different
object and nothing else.

The contract mirrors the paper's problem statement:

* :meth:`LinkPredictor.update` consumes one stream edge (amortised
  constant time for the sketch methods), and
  :meth:`LinkPredictor.update_block` a batch of them in order;
* :meth:`LinkPredictor.score` answers an online pairwise query for any
  registered :class:`~repro.exact.measures.Measure`;
* :meth:`LinkPredictor.nominal_bytes` reports the summary's packed
  size, the quantity the space experiments plot.

``score`` must return 0.0 for vertex pairs where either endpoint has
never appeared (the empty-neighborhood convention), never raise — an
online recommender cannot crash because a cold vertex was queried.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from typing import Dict, Iterable, Sequence, Tuple

from repro.graph.stream import Edge

__all__ = ["LinkPredictor"]


class LinkPredictor(ABC):
    """Abstract base class for all streaming link-prediction methods."""

    #: Human-readable method name used in experiment reports.
    method_name: str = "abstract"

    @abstractmethod
    def update(self, u: int, v: int) -> None:
        """Consume one undirected stream edge ``{u, v}``."""

    @abstractmethod
    def score(self, u: int, v: int, measure_name: str) -> float:
        """Estimate ``measure_name`` for the pair ``(u, v)``, online.

        Unknown vertices score 0.0; unknown measure names raise
        :class:`repro.errors.ConfigurationError`.
        """

    @abstractmethod
    def degree(self, vertex: int) -> int:
        """The method's current belief about ``vertex``'s degree
        (exact for most methods; approximate under the Count-Min degree
        option).  0 for unseen vertices."""

    @abstractmethod
    def nominal_bytes(self) -> int:
        """Packed size in bytes of all per-vertex state (the quantity
        the paper's space analysis counts)."""

    # ------------------------------------------------------------------
    # Conveniences shared by every implementation
    # ------------------------------------------------------------------

    def process(self, stream: Iterable[Edge]) -> int:
        """Consume an entire edge stream; returns the edge count.

        The count is *arrivals*, duplicates included — ``process``
        applies no deduplication, so on multi-edge streams
        degree-derived measures drift (see
        :meth:`repro.core.predictor.MinHashLinkPredictor.update` for
        the per-measure bias).  Pre-filter with
        :func:`repro.graph.stream.deduplicated`, or ingest through a
        :class:`~repro.stream.runner.StreamRunner` with casebook
        policies, whose ``stats()["duplicate_edges_detected"]`` reports
        how many duplicates were caught.
        """
        count = 0
        for edge in stream:
            self.update(edge.u, edge.v)
            count += 1
        return count

    def update_block(self, us, vs) -> int:
        """Consume a batch of edges in order; returns the edge count.

        This default is the :meth:`update` loop.  The stream runners
        hand every accepted chunk to ``update_block``, so a method with
        a vectorized kernel overrides it with one that ends in the same
        state as this loop.
        """
        for u, v in zip(us, vs):
            self.update(int(u), int(v))
        return len(us)

    def scores(self, u: int, v: int, measure_names: Sequence[str]) -> Dict[str, float]:
        """Estimate several measures for one pair in one call."""
        return {name: self.score(u, v, name) for name in measure_names}

    def rank_candidates(
        self,
        candidates: Iterable[Tuple[int, int]],
        measure_name: str,
        top: int | None = None,
    ) -> list[Tuple[Tuple[int, int], float]]:
        """Rank candidate pairs by descending estimated score.

        Ties break on the pair itself (deterministic output).  ``top``
        truncates the result; None returns the full ranking.  A
        truncated request runs the O(n log top) selection instead of a
        full sort — ``heapq.nsmallest`` under the same key is defined
        to equal ``sorted(...)[:top]``, so the ranking (ties included)
        is unchanged.
        """
        scored = ((pair, self.score(pair[0], pair[1], measure_name)) for pair in candidates)
        def sort_key(item):
            return (-item[1], item[0])
        if top is None:
            return sorted(scored, key=sort_key)
        return heapq.nsmallest(top, scored, key=sort_key)
