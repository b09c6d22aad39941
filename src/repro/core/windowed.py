"""Sliding-window streaming link prediction (extension).

The paper estimates measures over the *entire* stream history.  Many
deployments want recency instead: "who should connect, judging by the
last N interactions?"  This module extends the sketch machinery to a
sliding window using **pane rotation**, the standard trick for making
an insert-only summary forgetful without per-item timestamps:

* time is divided into *panes* of ``pane_edges`` stream edges;
* each pane owns a complete sketch store (sketches + degree counts)
  and receives all updates that arrive during its slice;
* the window is the ``panes`` most recent slices; when a pane fills,
  the oldest store is dropped whole.

Querying merges the per-pane state on the fly:

* the window neighborhood ``N_W(u)`` is the union of the pane
  neighborhoods, and a k-mins MinHash **merge is exact for union** —
  the merged sketch is bit-identical to the sketch a single pass over
  the window would have built;
* on a simple stream (each undirected edge arrives once — the library's
  standing convention, see ``deduplicated``), every window edge lives
  in exactly one pane, so the window degree is the *sum* of pane
  degrees, and the whole estimator algebra of
  :mod:`repro.core.estimators` applies unchanged.

Space is ``panes`` times the single-store cost — still constant per
vertex — and each update touches exactly one pane, preserving the
constant-time-per-edge property.  The window length is edge-count
based; wall-clock windows follow by choosing ``pane_edges`` from the
stream rate.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

import numpy as np

from repro.core.config import SketchConfig
from repro.core.estimators import score_rows
from repro.core.predictor import MinHashLinkPredictor
from repro.errors import ConfigurationError
from repro.exact.measures import measure_by_name
from repro.interface import LinkPredictor
from repro.sketches.minhash import KMinHash

__all__ = ["WindowedMinHashPredictor"]


class WindowedMinHashPredictor(LinkPredictor):
    """Link prediction over the last ``~ panes * pane_edges`` edges.

    Parameters
    ----------
    config:
        Sketch parameters shared by every pane (one
        :class:`~repro.hashing.HashBank` across panes, so pane sketches
        are mergeable).
    pane_edges:
        Edges per pane.
    panes:
        Number of live panes; the window covers between
        ``(panes - 1) * pane_edges`` and ``panes * pane_edges`` edges
        (the head pane is partially filled).

    Notes
    -----
    Exactness of the window semantics relies on each undirected edge
    arriving at most once *per window* (simple streams).  Re-arrivals
    within one pane are idempotent on sketches but inflate window
    degrees, exactly as for the non-windowed predictor.
    """

    method_name = "windowed_minhash"

    __slots__ = ("config", "pane_edges", "panes", "_stores", "_head_fill")

    def __init__(
        self,
        config: Optional[SketchConfig] = None,
        pane_edges: int = 10_000,
        panes: int = 4,
    ) -> None:
        self.config = config or SketchConfig()
        if self.config.degree_mode != "exact":
            raise ConfigurationError(
                "the windowed predictor requires exact degrees (window "
                "degrees are sums of pane degrees)"
            )
        if pane_edges < 1:
            raise ConfigurationError(f"pane_edges must be positive, got {pane_edges}")
        if panes < 2:
            raise ConfigurationError(f"need at least 2 panes, got {panes}")
        self.pane_edges = pane_edges
        self.panes = panes
        # Head of the deque = oldest pane; tail = currently-filling pane.
        # Panes share the hash bank through a common config/seed.
        self._stores: Deque[MinHashLinkPredictor] = deque(
            [MinHashLinkPredictor(self.config)]
        )
        self._head_fill = 0

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def update(self, u: int, v: int) -> None:
        """Route the edge to the filling pane, rotating when full."""
        if self._head_fill >= self.pane_edges:
            self._stores.append(MinHashLinkPredictor(self.config))
            if len(self._stores) > self.panes:
                self._stores.popleft()  # the window forgets a whole pane
            self._head_fill = 0
        self._stores[-1].update(u, v)
        self._head_fill += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def degree(self, vertex: int) -> int:
        """Window degree: sum of pane degrees (exact on simple streams)."""
        return sum(store.degree(vertex) for store in self._stores)

    def _window_sketch(self, vertex: int) -> Optional[KMinHash]:
        """Merged (union) sketch of the vertex over the live panes."""
        merged: Optional[KMinHash] = None
        for store in self._stores:
            sketch = store.sketch(vertex)
            if sketch is None:
                continue
            merged = sketch if merged is None else merged.merge(sketch)
        return merged

    def score(self, u: int, v: int, measure_name: str) -> float:
        """Any registered measure, evaluated over the window: the two
        merged window rows and window degrees go through
        :func:`~repro.core.estimators.score_rows`, and a vertex absent
        from every pane scores 0.0."""
        measure = measure_by_name(measure_name)
        su = self._window_sketch(u)
        sv = self._window_sketch(v)
        if su is None or sv is None:
            return 0.0
        return score_rows(
            measure, su.values, sv.values, su.witnesses, self.degree(u), self.degree(v),
            self.degree, self.config.k,
        )

    @property
    def vertex_count(self) -> int:
        """Vertices present in at least one live pane: the union of
        the panes' live id columns."""
        ids = [store._ids[: store.vertex_count] for store in self._stores]
        return len(np.unique(np.concatenate(ids)))

    @property
    def window_edges(self) -> int:
        """Number of stream edges currently covered by the window."""
        return self.pane_edges * (len(self._stores) - 1) + self._head_fill

    def nominal_bytes(self) -> int:
        return sum(store.nominal_bytes() for store in self._stores)

    def __repr__(self) -> str:
        return (
            f"WindowedMinHashPredictor(k={self.config.k}, "
            f"pane_edges={self.pane_edges}, panes={len(self._stores)}/{self.panes}, "
            f"window_edges={self.window_edges})"
        )
