"""E4b — block-ingest kernel: batched hashing + scatter-min updates.

The companion gate to E4: the same Barabási–Albert edge stream pushed
through three ingestion arms —

* **scalar** — ``predictor.update(u, v)`` per edge (the E4 baseline);
* **block** — ``predictor.update_block`` in spans of ``--batch-size``
  edges (the vectorized kernel);
* **sharded-block** — the :class:`~repro.parallel.ShardedRunner`,
  whose worker processes fold each routed chunk through
  ``update_block``.

Two properties are checked, with different teeth:

1. **Bit identity** (always a hard gate): the sha256 sketch
   fingerprints of all three arms must be identical.  The kernel buys
   throughput with vectorization, never with approximation — any
   divergence is a correctness bug, at smoke scale or full.
2. **Speedup**: the block arm must beat scalar by ``SMOKE_SPEEDUP_BAR``
   (3x) at every scale.  The full-scale bar of ``FULL_SPEEDUP_BAR``
   (10x) additionally requires the sharded arm and is only enforced on
   hosts with at least ``FULL_GATE_MIN_CORES`` cores — a laptop or a
   throttled single-core CI runner cannot parallelize its way to 10x,
   so there the full-scale figure is reported but not gated.

Runs standalone (no pytest) and writes the machine-readable record to
the repository root — ``BENCH_e4_block.json`` — so the trend is a
first-class, version-controlled artifact rather than a buried results
file::

    PYTHONPATH=src python benchmarks/bench_e4_block_ingest.py --smoke
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

from _common import SCALE, bench_arg_parser, emit_json
from repro.core import MinHashLinkPredictor, SketchConfig
from repro.graph.generators import barabasi_albert
from repro.stream.casebook import sketch_fingerprint

#: Block-vs-scalar bar enforced at every scale (CI smoke included).
SMOKE_SPEEDUP_BAR = 3.0
#: Sharded-block-vs-scalar bar at full scale on multi-core hosts.
FULL_SPEEDUP_BAR = 10.0
FULL_GATE_MIN_CORES = 4

EDGES = 60_000 if SCALE == "full" else 20_000
_STREAM = barabasi_albert(n=EDGES // 4, m=4, seed=9)[:EDGES]

ROOT_JSON = Path(__file__).resolve().parent.parent / "BENCH_e4_block.json"


def _scalar_arm(edges, k):
    predictor = MinHashLinkPredictor(SketchConfig(k=k, seed=1))
    started = time.perf_counter()
    for u, v in edges:
        predictor.update(u, v)
    return time.perf_counter() - started, predictor


def _block_arm(edges, k, batch_size):
    predictor = MinHashLinkPredictor(SketchConfig(k=k, seed=1))
    us = [u for u, _ in edges]
    vs = [v for _, v in edges]
    started = time.perf_counter()
    for start in range(0, len(edges), batch_size):
        predictor.update_block(
            us[start : start + batch_size], vs[start : start + batch_size]
        )
    return time.perf_counter() - started, predictor


def _sharded_arm(edges, k, workers):
    from repro.api import ingest

    started = time.perf_counter()
    report = ingest(edges, config=SketchConfig(k=k, seed=1), workers=workers)
    return time.perf_counter() - started, report.predictor


def main(argv=None):
    parser = bench_arg_parser("E4b block-ingest kernel: speedup + bit-identity gate")
    parser.add_argument(
        "--batch-size", type=int, default=4096, help="block span size (default 4096)"
    )
    parser.add_argument("--k", type=int, default=64, help="sketch size (default 64)")
    parser.add_argument(
        "--rounds", type=int, default=3, help="best-of-N timing rounds per arm"
    )
    args = parser.parse_args(argv)

    edges = [(e.u, e.v) for e in (_STREAM[:10_000] if args.smoke else _STREAM)]
    cores = os.cpu_count() or 1
    workers = min(FULL_GATE_MIN_CORES, cores) if cores > 1 else 2

    scalar_best = block_best = sharded_best = float("inf")
    fingerprints = {}
    for _ in range(max(1, args.rounds)):
        seconds, predictor = _scalar_arm(edges, args.k)
        scalar_best = min(scalar_best, seconds)
        fingerprints["scalar"] = sketch_fingerprint(predictor)
        seconds, predictor = _block_arm(edges, args.k, args.batch_size)
        block_best = min(block_best, seconds)
        fingerprints["block"] = sketch_fingerprint(predictor)
    # The sharded arm forks worker processes — once is enough for the
    # identity gate, and its timing is informational below 4 cores.
    seconds, predictor = _sharded_arm(edges, args.k, workers)
    sharded_best = min(sharded_best, seconds)
    fingerprints["sharded_block"] = sketch_fingerprint(predictor)

    block_speedup = scalar_best / block_best
    sharded_speedup = scalar_best / sharded_best
    full_gate_armed = SCALE == "full" and not args.smoke and cores >= FULL_GATE_MIN_CORES

    record = {
        "edges": len(edges),
        "k": args.k,
        "batch_size": args.batch_size,
        "workers": workers,
        "cores": cores,
        "scalar_edges_per_second": len(edges) / scalar_best,
        "block_edges_per_second": len(edges) / block_best,
        "sharded_block_edges_per_second": len(edges) / sharded_best,
        "block_speedup": block_speedup,
        "sharded_block_speedup": sharded_speedup,
        "smoke_speedup_bar": SMOKE_SPEEDUP_BAR,
        "full_speedup_bar": FULL_SPEEDUP_BAR if full_gate_armed else None,
        "fingerprints": fingerprints,
        "fingerprints_identical": len(set(fingerprints.values())) == 1,
    }
    json_path = emit_json("e4_block_ingest", record, path=args.json or ROOT_JSON)
    print(
        f"e4_block smoke={args.smoke} edges={len(edges)} k={args.k} "
        f"bs={args.batch_size} scalar={len(edges) / scalar_best:,.0f}/s "
        f"block={len(edges) / block_best:,.0f}/s ({block_speedup:.1f}x) "
        f"sharded[{workers}w]={len(edges) / sharded_best:,.0f}/s "
        f"({sharded_speedup:.1f}x) -> {json_path}"
    )

    failures = []
    if not record["fingerprints_identical"]:
        failures.append(
            "sketch fingerprints diverge across arms: "
            + ", ".join(f"{arm}={fp[:12]}" for arm, fp in fingerprints.items())
        )
    if block_speedup < SMOKE_SPEEDUP_BAR:
        failures.append(
            f"block speedup {block_speedup:.2f}x below the "
            f"{SMOKE_SPEEDUP_BAR:.0f}x bar"
        )
    if full_gate_armed and max(block_speedup, sharded_speedup) < FULL_SPEEDUP_BAR:
        failures.append(
            f"full-scale speedup {max(block_speedup, sharded_speedup):.2f}x below "
            f"the {FULL_SPEEDUP_BAR:.0f}x bar ({cores} cores)"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
