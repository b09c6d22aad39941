"""Sharded parallel ingestion: each worker owns a share of the vertices.

The pipeline assigns every vertex to one worker process
(:func:`owner_of`, a seeded hash of the vertex id) and sends each
stream edge's two arrivals, ``sketch(u) ← v`` and ``sketch(v) ← u``,
to the owners of their targets.  Every worker builds the sketch rows of
the vertices it owns, in stream order, with its own crash-resumable
checkpoints, so the shards are vertex-disjoint, hold one copy of the
sketch between them, and reduce by a disjoint union into a single
predictor that is bit-identical to serial ingestion.
:class:`ShardedRunner` is the public entry point; most callers reach it
through ``repro.api.ingest(..., workers=N)`` or
``repro ingest --workers N``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.parallel.partition": ["owner_of", "owner_of_array"],
        "repro.parallel.runner": ["ShardedRunner"],
        "repro.parallel.worker": ["shard_directory", "shard_worker_main"],
    },
)

__all__ = [
    "ShardedRunner",
    "owner_of",
    "owner_of_array",
    "shard_directory",
    "shard_worker_main",
]
