"""Deterministic edge→shard partitioning.

The whole parallel-ingest correctness story rests on one property: the
edge stream is *partitioned* — every undirected edge is processed by
exactly one worker.  Per-vertex k-mins sketches merge exactly over
neighborhood unions and exact degree counters add, so a partitioned
stream reduces to a predictor bit-identical to a serial pass
(:meth:`repro.core.predictor.MinHashLinkPredictor.merge`).

:func:`shard_of` implements the partition as a seeded splitmix64 hash
of the *canonical* (sorted) endpoint pair:

* canonicalising makes ``(u, v)`` and ``(v, u)`` land on the same shard
  (they are the same undirected edge),
* hashing — rather than, say, ``u % shards`` — spreads hub vertices'
  edges across all workers, so a power-law stream cannot starve all
  but one shard,
* seeding from Python-level splitmix64 (not :func:`hash`) makes the
  assignment stable across processes and interpreter restarts, which
  per-shard crash recovery requires: a record replayed after resume
  must route to the *same* shard that checkpointed it.

Duplicate arrivals of one edge also land on one shard, so the
degree-counting semantics of duplicates (they increment) match serial
ingestion exactly.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.families import _splitmix64_array
from repro.hashing.mixers import MASK64, splitmix64

__all__ = ["shard_of", "shard_of_array", "shard_counts"]

#: Odd 64-bit constants decorrelating the two endpoints and the seed.
_SEED_SALT = 0x9E3779B97F4A7C15
_ENDPOINT_SALT = 0xBF58476D1CE4E5B9


def shard_of(u: int, v: int, shards: int, seed: int = 0) -> int:
    """The shard owning the undirected edge ``{u, v}``.

    Deterministic in ``(min(u,v), max(u,v), shards, seed)`` only —
    never in process state.  ``shards`` must be positive; a single
    shard trivially owns everything.
    """
    if shards < 1:
        raise ConfigurationError(f"shards must be positive, got {shards}")
    if shards == 1:
        return 0
    lo, hi = (u, v) if u <= v else (v, u)
    mixed = splitmix64((seed * _SEED_SALT) & MASK64 ^ lo)
    mixed = splitmix64(mixed ^ ((hi * _ENDPOINT_SALT) & MASK64))
    return mixed % shards


def shard_of_array(us, vs, shards: int, seed: int = 0) -> np.ndarray:
    """:func:`shard_of` of every edge of two ``int64`` id arrays, bit
    for bit (the same splitmix64 chain, in wrapping ``uint64``)."""
    if shards < 1:
        raise ConfigurationError(f"shards must be positive, got {shards}")
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    if shards == 1:
        return np.zeros(len(us), dtype=np.int64)
    lo = np.minimum(us, vs).astype(np.uint64)
    hi = np.maximum(us, vs).astype(np.uint64)
    mixed = _splitmix64_array(np.uint64((seed * _SEED_SALT) & MASK64) ^ lo)
    mixed = _splitmix64_array(mixed ^ (hi * np.uint64(_ENDPOINT_SALT)))
    return (mixed % np.uint64(shards)).astype(np.int64)


def shard_counts(edges, shards: int, seed: int = 0) -> list:
    """Edges routed to each shard (diagnostics / balance tests)."""
    counts = [0] * shards
    for u, v in edges:
        counts[shard_of(u, v, shards, seed)] += 1
    return counts
