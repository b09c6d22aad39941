"""Degree tracking for the streaming predictors.

Every estimator in :mod:`repro.core.estimators` consumes vertex degrees.
The paper maintains them exactly — one integer per vertex is already
within the "constant space per vertex" budget — but DESIGN.md ablation 3
asks what happens when even that word is approximated away, so both
trackers implement one tiny protocol:

* :class:`ExactDegrees` — a dict of counters; exact, 8 nominal bytes
  per vertex.
* :class:`CountMinDegrees` — a fixed-size conservative Count-Min table;
  never underestimates, total space independent of the vertex count.

Degrees count *edge arrivals* per endpoint.  On simple-graph streams
(each undirected edge arrives once) that equals the true degree; on
multi-edge streams callers should pre-filter with
:func:`repro.graph.stream.deduplicated`, as every method documents.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict

import numpy as np

from repro.sketches.countmin import CountMin

__all__ = ["DegreeTracker", "ExactDegrees", "CountMinDegrees"]


class DegreeTracker(ABC):
    """Minimal protocol shared by both degree-tracking modes."""

    @abstractmethod
    def increment(self, vertex: int) -> None:
        """Count one new incident edge at ``vertex``."""

    def increment_block(self, targets) -> None:
        """Count one incident edge at each vertex of an arrival
        sequence's ``targets`` (an edge batch's endpoints interleaved,
        ``u0, v0, u1, v1, ...``, or a shard's share of them).

        The default replays that order one increment at a time, so
        order-dependent trackers (conservative Count-Min, whose cell
        increments depend on the interleaving of colliding keys) stay
        bit-identical to sequential ingestion.  Order-independent
        trackers override with a counting fast path.
        """
        for vertex in np.asarray(targets).tolist():
            self.increment(vertex)

    @abstractmethod
    def get(self, vertex: int) -> int:
        """Current degree belief (0 for unseen vertices)."""

    @abstractmethod
    def nominal_bytes(self) -> int:
        """Packed size of the tracker state."""


class ExactDegrees(DegreeTracker):
    """Exact per-vertex degree counters (the paper's setting)."""

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}

    def increment(self, vertex: int) -> None:
        self._counts[vertex] = self._counts.get(vertex, 0) + 1

    def increment_block(self, targets) -> None:
        """Exact counters commute, so a batch reduces to one bincount:
        one dict write per *unique* target instead of one per arrival."""
        unique, counts = np.unique(np.asarray(targets, dtype=np.int64), return_counts=True)
        table = self._counts
        for vertex, count in zip(unique.tolist(), counts.tolist()):
            table[vertex] = table.get(vertex, 0) + count

    def get(self, vertex: int) -> int:
        return self._counts.get(vertex, 0)

    def nominal_bytes(self) -> int:
        return 8 * len(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:
        return f"ExactDegrees(vertices={len(self._counts)})"


class CountMinDegrees(DegreeTracker):
    """Approximate degrees in a fixed-size Count-Min table.

    Conservative updates keep the one-sided (over-)estimation tight on
    the skewed degree distributions of real graphs.  Space is
    ``8 * width * depth`` bytes regardless of how many vertices appear.
    """

    __slots__ = ("_sketch",)

    def __init__(self, width: int = 1 << 14, depth: int = 4, seed: int = 0) -> None:
        self._sketch = CountMin(width=width, depth=depth, seed=seed, conservative=True)

    def increment(self, vertex: int) -> None:
        self._sketch.update(vertex)

    def get(self, vertex: int) -> int:
        return self._sketch.estimate(vertex)

    def nominal_bytes(self) -> int:
        return self._sketch.nominal_bytes()

    def __repr__(self) -> str:
        return (
            f"CountMinDegrees(width={self._sketch.width}, "
            f"depth={self._sketch.depth})"
        )
