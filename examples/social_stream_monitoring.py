"""Online monitoring of a live social stream.

Demonstrates the *streaming* usage pattern the paper targets: a single
pass over an unbounded friendship stream, with

* constant-memory stream statistics (HyperLogLog-backed),
* periodic "who should we introduce?" top-k recommendation snapshots
  computed entirely from the sketches, and
* the error bar that the Hoeffding guarantee attaches to each estimate.

The stream here is a planted-community graph (synthetic, seeded); in
production you would pass any iterable of (u, v, timestamp) edges —
e.g. a Kafka dump handed to ``repro.api.ingest``, which parses and
admits each line.

Run:  python examples/social_stream_monitoring.py
"""

from __future__ import annotations

from repro import ExactOracle, MinHashLinkPredictor, SketchConfig
from repro.eval.candidates import sample_two_hop_pairs
from repro.eval.reporting import format_table
from repro.graph import StreamStats, checkpoints, datasets


def main() -> None:
    edges = datasets.load("synth-communities")
    config = SketchConfig(k=192, seed=3)
    predictor = MinHashLinkPredictor(config)
    stats = StreamStats()

    # The demo keeps a shadow oracle only to *sample candidate pairs*
    # at each checkpoint (a production system would track candidates
    # from its own application logic, e.g. recent co-interactions).
    shadow = ExactOracle()

    print(
        f"monitoring a friendship stream; ε(Ĵ) = ±{config.jaccard_epsilon(0.05):.3f} "
        "at 95% confidence\n"
    )

    snapshot = 0
    for edge, seen, at_checkpoint in checkpoints(iter(edges), every=10000):
        if edge is not None:
            stats.observe(edge)
            predictor.update(edge.u, edge.v)
            shadow.update(edge.u, edge.v)
        if not at_checkpoint or edge is None and seen == 0:
            continue
        snapshot += 1
        candidates = sample_two_hop_pairs(shadow.graph, 400, seed=100 + seen)
        top = predictor.rank_candidates(candidates, "adamic_adar", top=3)
        rows = [
            [
                f"({u},{v})",
                score,
                predictor.estimate(u, v).jaccard_std_error,
            ]
            for (u, v), score in top
        ]
        print(
            format_table(
                ["suggested introduction", "ÂA", "±σ(Ĵ)"],
                rows,
                title=(
                    f"checkpoint {snapshot}: {seen} edges seen, "
                    f"~{stats.approximate_vertices():.0f} users, "
                    f"~{stats.approximate_edges():.0f} distinct friendships"
                ),
                precision=3,
            )
        )
        print()

    footprint = predictor.nominal_bytes() / 1024.0
    print(
        f"done: {stats.records} edges in one pass; sketch footprint "
        f"{footprint:.0f} KiB "
        f"({predictor.config.bytes_per_vertex() + 8} bytes/user, fixed)"
    )


if __name__ == "__main__":
    main()
