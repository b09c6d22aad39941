"""Batch scoring: serving link predictions at throughput.

Builds a warm MinHash predictor, snapshots it into a ``QueryEngine``,
and shows the three serving verbs: score a whole pair batch in one
vectorized call, fetch a vertex's top-k partners through LSH-pruned
candidate generation, and read the engine's health counters — then
measures the speedup over the single-pair loop on the same pairs.

Run:  python examples/batch_scoring.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import MinHashLinkPredictor, QueryEngine, SketchConfig
from repro.eval.reporting import format_table
from repro.graph import datasets


def main() -> None:
    # 1. A warm predictor: the write path, exactly as in quickstart.
    edges = datasets.load("synth-facebook")
    predictor = MinHashLinkPredictor(SketchConfig(k=128, seed=42))
    predictor.process(edges)

    # 2. The read path: snapshot into an engine.  The pack is frozen —
    #    the stream can keep updating the predictor; call refresh() to
    #    serve the newer state.
    engine = QueryEngine(predictor)

    # 3. Score a batch.  20k random pairs, some of which hit vertices
    #    the stream never produced — those score 0.0 (the unseen-vertex
    #    policy), never a KeyError.
    rng = np.random.default_rng(7)
    pairs = rng.integers(0, 4_500, size=(20_000, 2))

    engine.score_many(pairs[:64], "adamic_adar")  # warm-up; time the steady state
    started = time.perf_counter()
    batch_scores = engine.score_many(pairs, "adamic_adar")
    batch_seconds = time.perf_counter() - started

    started = time.perf_counter()
    loop_scores = [
        predictor.score(int(u), int(v), "adamic_adar") for u, v in pairs[:2_000]
    ]
    loop_seconds = (time.perf_counter() - started) * (len(pairs) / 2_000)

    assert np.allclose(batch_scores[:2_000], loop_scores)  # same answers
    print(
        f"scored {len(pairs):,} pairs: "
        f"score_many {len(pairs) / batch_seconds:,.0f} pairs/s vs "
        f"loop ~{len(pairs) / loop_seconds:,.0f} pairs/s "
        f"({loop_seconds / batch_seconds:.1f}x)"
    )

    # 4. Top-k recommendations.  The default banding prunes through the
    #    LSH index with exact recall: same answer as brute force, a
    #    fraction of the scoring work.
    hub = int(max(engine.store.vertex_ids, key=predictor.degree))
    ranked = engine.top_k(hub, "adamic_adar", k=8)
    print()
    print(
        format_table(
            ["candidate", "adamic_adar"],
            [[v, s] for v, s in ranked],
            title=f"Top partners of hub vertex {hub}",
            precision=3,
        )
    )

    # 5. The monitoring surface: flat scalars, one row per counter.
    print()
    print(
        format_table(
            ["stat", "value"],
            [[key, value] for key, value in engine.stats().items()],
            title="Engine stats",
            precision=2,
        )
    )


if __name__ == "__main__":
    main()
