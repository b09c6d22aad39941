"""What admission holds after ingest: the guard's columns, not objects.

The seen-edge store keeps 16 bytes per accepted edge, 1–2 more in its
probe filter, plus a fixed pending buffer; a set of ``(u, v)`` tuples
held ~145.  Everything ``repro.stream`` and the parser retain after a
100k-edge casebook ingest must fit in 32 bytes per accepted edge plus
the degree table.
"""

from __future__ import annotations

import os
import sys
import tracemalloc

import repro.graph.io
import repro.stream
from repro.core import SketchConfig
from repro.graph.generators import barabasi_albert
from repro.graph.io import write_edge_list
from repro.stream import FileEdgeSource, StreamRunner


def test_admission_holds_at_most_32_bytes_per_edge(tmp_path):
    path = tmp_path / "edges.txt"
    write_edge_list(path, barabasi_albert(6300, 16, seed=2), include_timestamps=False)
    stream_dir = os.path.dirname(repro.stream.__file__) + os.sep
    parser = repro.graph.io.__file__
    tracemalloc.start()
    try:
        runner = StreamRunner(
            FileEdgeSource(path),
            config=SketchConfig(k=16, seed=1),
            policies="normalize",
        )
        stats = runner.run()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = sum(
        stat.size
        for stat in snapshot.statistics("filename")
        if stat.traceback[0].filename.startswith(stream_dir)
        or stat.traceback[0].filename == parser
    )
    degrees = runner.guard._degrees
    degree_table = sys.getsizeof(degrees) + sum(
        sys.getsizeof(vertex) + sys.getsizeof(degree) for vertex, degree in degrees.items()
    )
    edges = stats["records_ok"]
    assert edges >= 100_000
    assert held <= 32 * edges + degree_table
