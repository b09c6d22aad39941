"""Deterministic vertex→shard ownership.

The whole parallel-ingest correctness story rests on one property:
every vertex is *owned* by exactly one worker, and every arrival into
its sketch reaches that worker in stream order.  A stream edge
``(u, v)`` is two arrivals, ``sketch(u) ← v`` and ``sketch(v) ← u``;
the coordinator sends each to the owner of its target vertex.  So each
shard's sketch rows, update counts and degrees are exactly the serial
pass's rows of the vertices it owns — the scalar witness tie-break
included — and the shards' stores are vertex-disjoint: W workers hold
one copy of the sketch between them, not W (gSketch partitions its
sketch by source vertex the same way).

:func:`owner_of` implements the ownership as a seeded splitmix64 hash
of the vertex id, mod the shard count:

* hashing — rather than, say, ``vertex % shards`` — spreads dense id
  ranges and id strides evenly over the workers;
* seeding from Python-level splitmix64 (not :func:`hash`) makes the
  assignment stable across processes and interpreter restarts, which
  per-shard crash recovery requires: an arrival replayed after resume
  must route to the *same* shard that checkpointed it.

A hub vertex's arrivals all land on its one owner — the price of exact
per-vertex state — but its neighbours' arrivals, the other half of each
of its edges, spread over every shard.

:data:`PARTITION_SCHEME` numbers this assignment.  Every shard
checkpoint is stamped with it and with the worker count, and a resume
under a different partition (another ``workers``, or a directory
written by the older edge-hash partition) is refused: its arrivals
would be routed to shards that never checkpointed them.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.families import _splitmix64_array
from repro.hashing.mixers import MASK64, splitmix64

__all__ = ["PARTITION_SCHEME", "owner_of", "owner_of_array"]

#: The partition-scheme number shard checkpoints carry (scheme 1, the
#: older edge-hash partition, wrote no stamp).
PARTITION_SCHEME = 2

#: Odd 64-bit constant decorrelating the seed from the vertex id.
_SEED_SALT = 0x9E3779B97F4A7C15


def _check_shards(shards: int) -> None:
    if shards < 1:
        raise ConfigurationError(f"shards must be positive, got {shards}")


def owner_of(vertex: int, shards: int, seed: int = 0) -> int:
    """The shard owning ``vertex``'s sketch row.

    Deterministic in ``(vertex, shards, seed)`` only — never in process
    state.  ``shards`` must be positive; a single shard owns everything.
    """
    _check_shards(shards)
    if shards == 1:
        return 0
    return splitmix64((seed * _SEED_SALT) & MASK64 ^ vertex) % shards


def owner_of_array(vertices, shards: int, seed: int = 0) -> np.ndarray:
    """:func:`owner_of` of every id of an ``int64`` array, bit for bit
    (the same splitmix64 step, in wrapping ``uint64``)."""
    _check_shards(shards)
    vertices = np.asarray(vertices, dtype=np.int64)
    if shards == 1:
        return np.zeros(len(vertices), dtype=np.int64)
    mixed = _splitmix64_array(np.uint64((seed * _SEED_SALT) & MASK64) ^ vertices.astype(np.uint64))
    return (mixed % np.uint64(shards)).astype(np.int64)
