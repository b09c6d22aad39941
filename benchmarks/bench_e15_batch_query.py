"""E15 — batch query throughput (the serving-tier benchmark).

Compares the per-pair ``predictor.score`` loop against the vectorized
``QueryEngine.score_many`` kernel on the same warm store and the same
pair batch, and measures how many candidates LSH pruning saves a
``top_k`` query relative to brute force.

Expected shape (asserted):

* ``score_many`` is at least **10×** the single-pair loop on a
  100k-pair batch (the tentpole acceptance bar),
* pruned ``top_k`` scores strictly fewer candidates than brute force
  while returning the *identical* ranked list (exact-recall banding).

Also runnable without pytest for the CI smoke step::

    PYTHONPATH=src python benchmarks/bench_e15_batch_query.py --smoke
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

from _common import SCALE, bench_arg_parser, emit, emit_json, stream_of
from repro.core import MinHashLinkPredictor, SketchConfig
from repro.eval.reporting import format_table
from repro.serve import QueryEngine

DATASET = "synth-facebook" if SCALE == "full" else "synth-grqc"
N_PAIRS = 100_000
MEASURE = "adamic_adar"
SPEEDUP_BAR = 10.0

_STATE = {}
_RESULTS = {}


def _build(n_pairs=N_PAIRS, k=128):
    predictor = MinHashLinkPredictor(SketchConfig(k=k, seed=2))
    predictor.process(stream_of(DATASET))
    engine = QueryEngine(predictor)
    rng = np.random.default_rng(7)
    vertices = engine.store.vertex_ids
    pairs = np.column_stack(
        [
            rng.choice(vertices, size=n_pairs),
            rng.choice(vertices, size=n_pairs),
        ]
    ).astype(np.int64)
    return predictor, engine, pairs


def _get_state():
    if not _STATE:
        predictor, engine, pairs = _build()
        _STATE.update(predictor=predictor, engine=engine, pairs=pairs)
    return _STATE


def _loop_scores(predictor, pairs):
    return [predictor.score(int(u), int(v), MEASURE) for u, v in pairs]


def test_e15_single_pair_loop(benchmark):
    state = _get_state()
    benchmark.pedantic(
        _loop_scores,
        args=(state["predictor"], state["pairs"]),
        rounds=2,
        iterations=1,
    )
    _RESULTS["loop_seconds"] = benchmark.stats.stats.mean


def test_e15_score_many(benchmark):
    state = _get_state()
    benchmark.pedantic(
        state["engine"].score_many,
        args=(state["pairs"], MEASURE),
        rounds=5,
        iterations=1,
    )
    _RESULTS["batch_seconds"] = benchmark.stats.stats.mean


def test_e15_batch_matches_loop(benchmark):
    state = _get_state()
    sample = state["pairs"][:2_000]
    batch = benchmark.pedantic(
        state["engine"].score_many, args=(sample, MEASURE), rounds=1, iterations=1
    )
    loop = _loop_scores(state["predictor"], sample)
    np.testing.assert_allclose(batch, loop, rtol=1e-12, atol=1e-12)


def test_e15_topk_prune_vs_brute(benchmark):
    state = _get_state()
    engine = state["engine"]
    probes = [int(v) for v in engine.store.vertex_ids[:25]]

    def run_pruned():
        return [engine.top_k(u, "jaccard", k=10, prune=True) for u in probes]

    pruned_lists = benchmark.pedantic(run_pruned, rounds=2, iterations=1)
    pruned_scored = engine.stats()["candidates_scored"]
    engine.refresh()
    brute_lists = [engine.top_k(u, "jaccard", k=10, prune=False) for u in probes]
    brute_scored = engine.stats()["candidates_scored"]
    engine.refresh()

    assert pruned_lists[-len(brute_lists):] == brute_lists  # identical answers
    _RESULTS["pruned_candidates"] = pruned_scored // 2  # 2 pedantic rounds
    _RESULTS["brute_candidates"] = brute_scored


def test_e15_report_and_shape(benchmark):
    assert {"loop_seconds", "batch_seconds"} <= set(_RESULTS)
    rows = benchmark.pedantic(_report_rows, rounds=1, iterations=1)
    emit(
        "e15_batch_query",
        format_table(
            ["metric", "value"],
            rows,
            title=f"E15: batch {MEASURE} throughput on {DATASET} ({N_PAIRS} pairs)",
            precision=1,
        ),
    )
    speedup = _RESULTS["loop_seconds"] / _RESULTS["batch_seconds"]
    emit_json(
        "e15_batch_query",
        {
            "dataset": DATASET,
            "pairs": N_PAIRS,
            "loop_pairs_per_second": N_PAIRS / _RESULTS["loop_seconds"],
            "batch_pairs_per_second": N_PAIRS / _RESULTS["batch_seconds"],
            "speedup": speedup,
            "topk_candidates_brute": _RESULTS["brute_candidates"],
            "topk_candidates_pruned": _RESULTS["pruned_candidates"],
            "cores": os.cpu_count() or 1,
        },
    )
    assert speedup >= SPEEDUP_BAR, f"score_many only {speedup:.1f}x the loop"
    assert 0 < _RESULTS["pruned_candidates"] < _RESULTS["brute_candidates"]


def _report_rows():
    loop = _RESULTS["loop_seconds"]
    batch = _RESULTS["batch_seconds"]
    return [
        ["loop pairs/sec", int(N_PAIRS / loop)],
        ["score_many pairs/sec", int(N_PAIRS / batch)],
        ["speedup", loop / batch],
        ["top-k candidates (brute)", _RESULTS["brute_candidates"]],
        ["top-k candidates (pruned)", _RESULTS["pruned_candidates"]],
    ]


def main(argv=None):
    """Standalone entry point for the CI smoke step (no pytest)."""
    args = bench_arg_parser("E15 batch query throughput smoke").parse_args(argv)
    smoke = args.smoke
    n_pairs = 20_000 if smoke else N_PAIRS
    predictor, engine, pairs = _build(n_pairs=n_pairs)

    started = time.perf_counter()
    loop = _loop_scores(predictor, pairs)
    loop_seconds = time.perf_counter() - started

    engine.score_many(pairs[:100], MEASURE)  # warm the kernel path
    started = time.perf_counter()
    batch = engine.score_many(pairs, MEASURE)
    batch_seconds = time.perf_counter() - started

    np.testing.assert_allclose(batch, loop, rtol=1e-12, atol=1e-12)
    speedup = loop_seconds / batch_seconds

    probes = [int(v) for v in engine.store.vertex_ids[:10]]
    engine.refresh()
    pruned_lists = [engine.top_k(u, "jaccard", k=10, prune=True) for u in probes]
    pruned_scored = engine.stats()["candidates_scored"]
    engine.refresh()
    brute_lists = [engine.top_k(u, "jaccard", k=10, prune=False) for u in probes]
    brute_scored = engine.stats()["candidates_scored"]

    print(
        f"e15 smoke={smoke} pairs={n_pairs} "
        f"loop={n_pairs / loop_seconds:,.0f}/s "
        f"batch={n_pairs / batch_seconds:,.0f}/s speedup={speedup:.1f}x "
        f"topk candidates {brute_scored} -> {pruned_scored}"
    )
    emit_json(
        "e15_batch_query_smoke" if smoke else "e15_batch_query",
        {
            "dataset": DATASET,
            "pairs": n_pairs,
            "loop_pairs_per_second": n_pairs / loop_seconds,
            "batch_pairs_per_second": n_pairs / batch_seconds,
            "speedup": speedup,
            "topk_candidates_brute": brute_scored,
            "topk_candidates_pruned": pruned_scored,
            "cores": os.cpu_count() or 1,
        },
        path=args.json or None,
    )
    if pruned_lists != brute_lists:
        print("FAIL: pruned top-k disagrees with brute force", file=sys.stderr)
        return 1
    if not 0 < pruned_scored < brute_scored:
        print("FAIL: pruning did not reduce candidate work", file=sys.stderr)
        return 1
    if speedup < SPEEDUP_BAR:
        print(f"FAIL: speedup {speedup:.1f}x below {SPEEDUP_BAR}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
