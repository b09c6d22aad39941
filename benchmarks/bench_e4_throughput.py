"""E4 — update throughput (the paper's edges/second figure).

Measures single-pass ingestion rate: the MinHash predictor at several
sketch sizes, the biased predictor, the sampling baselines, and the
exact snapshot.  pytest-benchmark provides the timing; the table reports
derived edges/second.

Expected shape (asserted): sketch update cost is O(k) — throughput
drops roughly linearly as k doubles — and stays within a small constant
factor of the exact method's (which does O(1) set inserts but pays
unbounded memory).  Absolute numbers are pure-Python figures; the paper
used a compiled testbed (see DESIGN.md substitution table).

Also runnable without pytest for the CI ingest-metrics smoke::

    PYTHONPATH=src python benchmarks/bench_e4_throughput.py --smoke \
        --json results.json --metrics-out metrics.jsonl

The standalone runner drives the full ``StreamRunner`` ingest path with
the registry enabled vs. explicitly disabled, in interleaved rounds of
passes lasting at least a second each, and gates on the observability
acceptance bar: instrumented throughput within 5% of uninstrumented.
"""

from __future__ import annotations

import math
import statistics
import sys
import time

import pytest

from _common import SCALE, bench_arg_parser, emit, emit_json
from repro.core import BiasedMinHashLinkPredictor, MinHashLinkPredictor, SketchConfig
from repro.eval.reporting import format_table
from repro.exact import EdgeReservoirBaseline, ExactOracle, NeighborReservoirBaseline
from repro.graph.generators import barabasi_albert

#: Acceptance bar: metrics may cost at most this fraction of throughput.
OVERHEAD_BAR = 0.05
#: Shortest timed pass per arm and round, and the interleaved rounds.
MIN_PASS_SECONDS = 1.25
ROUNDS = 9

EDGES = 60_000 if SCALE == "full" else 20_000
_STREAM = barabasi_albert(n=EDGES // 4, m=4, seed=9)[:EDGES]

_RESULTS = {}


def _ingest(factory):
    predictor = factory()
    for edge in _STREAM:
        predictor.update(edge.u, edge.v)
    return predictor


METHODS = {
    "minhash k=32": lambda: MinHashLinkPredictor(SketchConfig(k=32, seed=1)),
    "minhash k=128": lambda: MinHashLinkPredictor(SketchConfig(k=128, seed=1)),
    "minhash k=512": lambda: MinHashLinkPredictor(SketchConfig(k=512, seed=1)),
    "biased k=128": lambda: BiasedMinHashLinkPredictor(SketchConfig(k=128, seed=1)),
    "neighbor reservoir": lambda: NeighborReservoirBaseline(256, seed=1),
    "edge reservoir": lambda: EdgeReservoirBaseline(EDGES // 4, seed=1),
    "exact snapshot": lambda: ExactOracle(),
}


@pytest.mark.parametrize("method", list(METHODS))
def test_e4_ingest_throughput(benchmark, method):
    benchmark.pedantic(_ingest, args=(METHODS[method],), rounds=1, iterations=1)
    _RESULTS[method] = EDGES / benchmark.stats.stats.mean


def test_e4_report_and_shape(benchmark):
    """Runs after the parametrized timings; prints the derived table.

    (Takes the benchmark fixture so --benchmark-only does not skip it;
    the timed workload is the table construction itself.)
    """
    assert len(_RESULTS) == len(METHODS), "timing cases must run first"

    def build_rows():
        return [
            [method, int(rate), f"{rate / _RESULTS['exact snapshot']:.2f}x"]
            for method, rate in _RESULTS.items()
        ]

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    emit(
        "e4_throughput",
        format_table(
            ["method", "edges/s", "vs exact"],
            rows,
            title=f"E4: ingestion throughput ({EDGES} BA stream edges, pure Python)",
        ),
    )
    emit_json(
        "e4_throughput",
        {
            "edges": EDGES,
            "edges_per_second": {m: rate for m, rate in _RESULTS.items()},
        },
    )
    # Shape: O(k) updates — k=512 must be slower than k=32.  The gap to
    # the exact method is a pure language artifact: a CPython set-insert
    # is one C call, a sketch update is a handful of numpy array ops
    # whose fixed overhead dominates at small k (the paper's compiled
    # implementation pays neither).  Assert only that the constant
    # factor stays within two orders of magnitude and that throughput
    # is not collapsing with k faster than linearly.
    assert _RESULTS["minhash k=512"] < _RESULTS["minhash k=32"]
    assert _RESULTS["minhash k=32"] > _RESULTS["exact snapshot"] / 100.0
    assert _RESULTS["minhash k=512"] > _RESULTS["minhash k=32"] / 16.0


# ----------------------------------------------------------------------
# Standalone runner: the observability overhead gate (no pytest)
# ----------------------------------------------------------------------


def _runner_ingest(edges, registry, k=64):
    """Full StreamRunner ingest of ``edges``; returns (seconds, runner)."""
    from repro.obs import PeriodicReporter  # noqa: F401  (import parity)
    from repro.stream import IteratorEdgeSource, StreamRunner

    runner = StreamRunner(
        IteratorEdgeSource([(e.u, e.v) for e in edges], name="bench-e4"),
        config=SketchConfig(k=k, seed=1),
        metrics=registry,
    )
    started = time.perf_counter()
    runner.run()
    return time.perf_counter() - started, runner


def main(argv=None):
    """Compare instrumented vs. uninstrumented StreamRunner ingest.

    Gates on ``OVERHEAD_BAR``: the enabled registry may slow ingest by
    at most 5% relative to ``MetricsRegistry(enabled=False)``.  Each
    round gives each arm at least ``MIN_PASS_SECONDS`` of ingest (the
    stream ingested as often as that takes, the arms alternating); the
    overhead is the median of the per-round time ratios.
    ``--metrics-out`` additionally dumps the instrumented run's final
    snapshot (the CI artifact).
    """
    from repro.obs import MetricsRegistry, snapshot

    parser = bench_arg_parser("E4 ingest throughput + metrics overhead gate")
    parser.add_argument(
        "--metrics-out",
        default="",
        metavar="FILE",
        help="write the instrumented run's metrics snapshot (JSON) here",
    )
    args = parser.parse_args(argv)

    edges = _STREAM[:10_000] if args.smoke else _STREAM
    # A single ~70 ms ingest jitters by +-20% on a shared host, far above
    # the signal being gated on (one bound Counter.inc per chunk).  So a
    # round ingests the stream until each arm has run MIN_PASS_SECONDS,
    # alternating the arms ingest by ingest so both see the same noise.
    single = min(_runner_ingest(edges, MetricsRegistry())[0] for _ in range(2))
    repeats = max(1, math.ceil(MIN_PASS_SECONDS / single))
    ratios, times = [], {False: [], True: []}
    for round_index in range(ROUNDS):
        spent = {False: 0.0, True: 0.0}
        for repeat in range(repeats):
            for enabled in (False, True) if (round_index + repeat) % 2 else (True, False):
                registry = MetricsRegistry(enabled=enabled)
                seconds, _runner = _runner_ingest(edges, registry)
                spent[enabled] += seconds
                if enabled:
                    final_registry = registry
        for enabled, seconds in spent.items():
            times[enabled].append(seconds)
        ratios.append(spent[True] / spent[False])

    overhead = statistics.median(ratios) - 1.0
    disabled_rate = len(edges) * repeats * ROUNDS / sum(times[False])
    enabled_rate = len(edges) * repeats * ROUNDS / sum(times[True])
    record = {
        "edges": len(edges),
        "rounds": ROUNDS,
        "repeats_per_pass": repeats,
        "pass_seconds": statistics.median(times[False]),
        "uninstrumented_edges_per_second": disabled_rate,
        "instrumented_edges_per_second": enabled_rate,
        "round_overheads": [ratio - 1.0 for ratio in ratios],
        "overhead_fraction": overhead,
        "overhead_bar": OVERHEAD_BAR,
    }
    json_path = emit_json("e4_ingest_overhead", record, path=args.json or None)
    print(
        f"e4 smoke={args.smoke} edges={len(edges)} x{repeats} rounds={ROUNDS} "
        f"uninstrumented={disabled_rate:,.0f}/s "
        f"instrumented={enabled_rate:,.0f}/s "
        f"overhead={overhead:+.1%} (median round; bar {OVERHEAD_BAR:.0%}) -> {json_path}"
    )
    if args.metrics_out:
        import json as _json

        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            _json.dump(snapshot(final_registry), handle, indent=2)
            handle.write("\n")
        print(f"metrics snapshot -> {args.metrics_out}")
    if overhead > OVERHEAD_BAR:
        print(
            f"FAIL: metrics overhead {overhead:.1%} exceeds {OVERHEAD_BAR:.0%}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
