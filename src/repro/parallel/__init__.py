"""Sharded parallel ingestion: partition the stream, merge the sketches.

The pipeline partitions one edge stream across worker processes by
hashing each undirected edge to a shard (:func:`shard_of`), lets every
worker build a full-configuration predictor over its partition with its
own crash-resumable checkpoints, and reduces the shards through the
exact ``merge()`` algebra back into a single predictor that is
bit-identical to serial ingestion.  :class:`ShardedRunner` is the
public entry point; most callers reach it through
``repro.api.ingest(..., workers=N)`` or ``repro ingest --workers N``.
"""

from repro.parallel.partition import shard_counts, shard_of, shard_of_array
from repro.parallel.runner import ShardedRunner
from repro.parallel.worker import shard_directory, shard_worker_main

__all__ = [
    "ShardedRunner",
    "shard_counts",
    "shard_directory",
    "shard_of",
    "shard_of_array",
    "shard_worker_main",
]
