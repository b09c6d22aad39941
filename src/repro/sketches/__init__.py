"""Streaming summaries: MinHash, bottom-k, weighted MinHash, HLL,
Count-Min, reservoir sampling, Bloom filters.

Every class is seed-deterministic, reports its packed size via
``nominal_bytes()``, and (where the theory allows) supports ``merge``.
The graph-stream link predictors in :mod:`repro.core` are composed from
these primitives; each is also a usable standalone tool.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.sketches.base": ["MergeableSummary", "StreamSummary"],
        "repro.sketches.bloom": ["BloomFilter"],
        "repro.sketches.bottomk": ["BottomK"],
        "repro.sketches.countmin": ["CountMin"],
        "repro.sketches.dynamic": ["DynamicKMinHash"],
        "repro.sketches.hyperloglog": ["HyperLogLog"],
        "repro.sketches.minhash": ["EMPTY_SLOT", "NO_WITNESS", "KMinHash"],
        "repro.sketches.reservoir": ["Reservoir"],
        "repro.sketches.weighted_minhash": ["WeightedMinHash"],
    },
)

__all__ = [
    "StreamSummary",
    "MergeableSummary",
    "KMinHash",
    "DynamicKMinHash",
    "EMPTY_SLOT",
    "NO_WITNESS",
    "BottomK",
    "WeightedMinHash",
    "HyperLogLog",
    "CountMin",
    "Reservoir",
    "BloomFilter",
]
