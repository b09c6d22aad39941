"""Batch query serving over warm sketch stores.

PR 1 hardened the *write* path (fault-tolerant, resumable ingestion);
this package is the *read* path: serving many measure queries per
second from a :class:`~repro.core.predictor.MinHashLinkPredictor`
without paying a Python-level loop per pair.

* :class:`~repro.serve.packed.PackedSketches` — every vertex sketch
  packed into one contiguous ``(n, k)`` matrix plus a degree vector,
  with binary-search row lookup.
* :mod:`repro.serve.kernels` — the vectorized scoring kernel: slot
  collisions via broadcast equality, then the estimator algebra of
  :mod:`repro.core.estimators` evaluated as array expressions for every
  registered measure.
* :class:`~repro.serve.engine.QueryEngine` — the serving facade:
  ``score_many(pairs, measure)`` and ``top_k(u, measure, k)`` (with
  LSH-pruned candidate generation), plus a flat ``stats()`` health
  surface mirroring :meth:`repro.stream.runner.StreamRunner.stats`.
* :class:`~repro.serve.server.SketchServer` — the always-on tier: a
  stdlib asyncio HTTP service over immutable
  :class:`~repro.serve.server.Generation` snapshots with zero-downtime
  hot-swap, request micro-batching, live background ingest and
  graceful drain (``repro.api.serve`` / ``repro-linkpred serve``).
* :mod:`repro.serve.loadgen` — the closed-loop load generator that
  measures it (and audits every response for torn reads).

The engine answers every query exactly as the per-pair
:meth:`~repro.core.predictor.MinHashLinkPredictor.score` path would —
same estimators, same clamps, same unseen-vertex policy (0.0, never a
``KeyError``) — it just answers thousands of them per NumPy dispatch.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.serve.engine": ["QueryEngine"],
        "repro.serve.kernels": ["score_pairs_packed"],
        "repro.serve.packed": ["PackedSketches"],
        "repro.serve.server": ["Generation", "SketchServer"],
    },
)

__all__ = [
    "Generation",
    "PackedSketches",
    "QueryEngine",
    "SketchServer",
    "score_pairs_packed",
]
