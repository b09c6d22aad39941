"""Graph substrate: adjacency storage, edge streams, generators, I/O,
and the synthetic dataset registry.

The streaming predictors in :mod:`repro.core` consume anything iterable
over :class:`~repro.graph.stream.Edge`; everything in this subpackage
produces or transforms such streams.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.graph.adjacency": ["AdjacencyGraph"],
        "repro.graph.digraph": ["DirectedGraph"],
        "repro.graph.io": [
            "VertexRelabeler", "parse_stream_record", "read_pairs", "write_edge_list",
        ],
        "repro.graph.stream": [
            "OPS", "Edge", "EdgeStream", "StreamRecord", "StreamStats", "checkpoints",
            "deduplicated", "edge_key", "from_pairs", "prefix", "shuffled",
            "with_timestamps",
        ],
        "repro.graph.temporal": [
            "TimestampStats", "clip_by_time", "rate_profile", "sort_by_timestamp",
            "time_snapshots",
        ],
    },
)

__all__ = [
    "AdjacencyGraph",
    "DirectedGraph",
    "Edge",
    "EdgeStream",
    "OPS",
    "StreamRecord",
    "StreamStats",
    "TimestampStats",
    "VertexRelabeler",
    "checkpoints",
    "clip_by_time",
    "deduplicated",
    "edge_key",
    "from_pairs",
    "parse_stream_record",
    "prefix",
    "rate_profile",
    "read_pairs",
    "shuffled",
    "sort_by_timestamp",
    "time_snapshots",
    "with_timestamps",
    "write_edge_list",
]
