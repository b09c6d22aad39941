"""E11c — fully dynamic sketches under churn: deletes and TTL vs drift.

The deletion-tolerance gate, runnable standalone (CI artifact) and as
the ``test_e11c_*`` pytest-benchmark in ``bench_e11_extensions.py``::

    PYTHONPATH=src python benchmarks/bench_e11c_dynamic.py --smoke

Scenario: a churned stream.  Structure A is added, structure B is
added, then every structure-A record is retracted — the *live* graph
at the end is exactly B.  Three predictors consume it:

* **append-only full history** — the paper's insert-only sketches;
  deletes are invisible to it (an operator would see them quarantined
  as ``unsupported_delete``), so its estimates blend the retracted
  A-overlaps forever: drift.
* **dynamic (explicit deletes)** — counter-backed sketches applying
  the retractions; its state collapses to B's.
* **dynamic (TTL expiry)** — no explicit deletes; A sits below the
  sliding-window horizon and falls out on its own.

The gate: both dynamic arms must estimate *live* common neighbors at
most half the error of the append-only arm.
"""

from __future__ import annotations

import os
import random
import sys

from _common import bench_arg_parser, emit_json
from repro.core import DynamicMinHashPredictor, MinHashLinkPredictor, SketchConfig
from repro.eval.metrics import mean_relative_error
from repro.exact import ExactOracle
from repro.graph.generators import planted_partition
from repro.graph.stream import Edge

EXPERIMENT = "e11c_dynamic"

#: Error-ratio bar: each dynamic arm must halve the append-only error.
RATIO_BAR = 0.5


def churn_scenario(*, n, communities, internal, external, seed=81):
    """Stale structure A and live structure B (B relabeled to straddle
    A's blocks, so the two phases' overlaps genuinely differ)."""
    shift = (n // communities) // 2
    stale = list(
        planted_partition(
            n=n, communities=communities, internal_edges=internal,
            external_edges=external, seed=seed,
        )
    )
    live_raw = planted_partition(
        n=n, communities=communities, internal_edges=internal,
        external_edges=external, seed=seed + 1,
    )
    live = [
        Edge((e.u + shift) % n, (e.v + shift) % n, e.timestamp)
        for e in live_raw
        if (e.u + shift) % n != (e.v + shift) % n
    ]
    return stale, live


def _query_pairs(truth_graph, *, n, communities, count, seed):
    """Non-adjacent pairs inside live communities (blocks shifted)."""
    rng = random.Random(seed)
    block = n // communities
    shift = block // 2
    pairs = []
    while len(pairs) < count:
        community = rng.randrange(communities)
        low = (community * block + shift) % n
        u = (low + rng.randrange(block)) % n
        v = (low + rng.randrange(block)) % n
        if (
            u != v
            and u in truth_graph
            and v in truth_graph
            and not truth_graph.has_edge(u, v)
        ):
            pairs.append((u, v))
    return pairs


def run_churn(*, n=1000, communities=10, internal=14000, external=1000, k=192, seed=81):
    """Run all three arms; returns the per-arm mean relative errors."""
    stale, live = churn_scenario(
        n=n, communities=communities, internal=internal, external=external, seed=seed
    )
    # Stream times: A lives in [0, 1), B in [2, 3) — a TTL of 1.5
    # (measured at B's clock) expires every A edge and no B edge.
    stale_ts = [0.5] * len(stale)
    live_ts = [2.5] * len(live)
    ttl = 1.5

    truth = ExactOracle()
    truth.process(live)

    append_only = MinHashLinkPredictor(SketchConfig(k=k, seed=seed + 1))
    for edge in stale + live:
        append_only.update(edge.u, edge.v)

    deletes = DynamicMinHashPredictor(
        SketchConfig(k=k, seed=seed + 1, dynamic_mode=True)
    )
    deletes.update_block([e.u for e in stale], [e.v for e in stale], stale_ts)
    deletes.update_block([e.u for e in live], [e.v for e in live], live_ts)
    deletes.delete_block(
        [e.u for e in stale], [e.v for e in stale], [3.0] * len(stale)
    )

    expiry = DynamicMinHashPredictor(
        SketchConfig(k=k, seed=seed + 1, dynamic_mode=True, ttl=ttl)
    )
    expiry.update_block([e.u for e in stale], [e.v for e in stale], stale_ts)
    expiry.update_block([e.u for e in live], [e.v for e in live], live_ts)

    pairs = _query_pairs(
        truth.graph, n=n, communities=communities, count=150, seed=seed + 2
    )
    truths = [truth.score(u, v, "common_neighbors") for u, v in pairs]
    results = {}
    for label, predictor in (
        ("append_only", append_only),
        ("dynamic_deletes", deletes),
        ("dynamic_ttl", expiry),
    ):
        estimates = [predictor.score(u, v, "common_neighbors") for u, v in pairs]
        results[f"{label}_mre"] = mean_relative_error(estimates, truths)
    results["pairs"] = len(pairs)
    results["stale_edges"] = len(stale)
    results["live_edges"] = len(live)
    results["k"] = k
    results["ttl"] = ttl
    return results


def main(argv=None) -> int:
    parser = bench_arg_parser(
        "E11c: dynamic deletes/TTL track the live graph where "
        "append-only drifts"
    )
    parser.add_argument("--k", type=int, default=192, help="sketch size")
    args = parser.parse_args(argv)

    if args.smoke:
        results = run_churn(
            n=300, communities=6, internal=3000, external=300, k=args.k
        )
    else:
        results = run_churn(k=args.k)

    record = dict(results)
    record["ratio_bar"] = RATIO_BAR
    record["cores"] = os.cpu_count() or 1
    json_path = emit_json(EXPERIMENT, record, path=args.json or None)
    print(
        f"e11c smoke={args.smoke} "
        f"append_only={results['append_only_mre']:.3f} "
        f"deletes={results['dynamic_deletes_mre']:.3f} "
        f"ttl={results['dynamic_ttl_mre']:.3f} -> {json_path}"
    )

    failures = []
    for arm in ("dynamic_deletes", "dynamic_ttl"):
        ratio = results[f"{arm}_mre"] / results["append_only_mre"]
        if ratio >= RATIO_BAR:
            failures.append(
                f"{arm} error is {ratio:.2f}x append-only "
                f"(bar: < {RATIO_BAR:.2f}x)"
            )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
