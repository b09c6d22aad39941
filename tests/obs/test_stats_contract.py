"""The legacy ``stats()`` contracts, now backed by the registry.

Three guarantees the observability refactor must not erode:

1. **Schema stability** — the exact key sets of ``StreamRunner.stats()``
   and ``QueryEngine.stats()`` are pinned here; adding or removing a key
   is a deliberate act that updates this file.
2. **Bit identity** — on a pinned input stream the values (and their
   Python types) match the pre-registry implementation exactly.
3. **Defensive snapshots** — the returned dicts are fresh objects;
   mutating them (including the nested ``dead_letter_reasons``) cannot
   corrupt the runner's or engine's internal state.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.core import MinHashLinkPredictor, SketchConfig
from repro.obs import MetricsRegistry
from repro.serve import QueryEngine
from repro.parallel import ShardedRunner
from repro.stream import (
    FaultInjector,
    IteratorEdgeSource,
    RetryingSource,
    RetryPolicy,
    StreamRunner,
)

RUNNER_STATS_KEYS = {
    "checkpoints_written",
    "dead_letter_reasons",
    "dead_lettered",
    "dropped",
    "duplicate_edges_detected",
    "dynamic",
    "last_checkpoint_age_seconds",
    "last_checkpoint_offset",
    "normalized",
    "normalized_reasons",
    "offset",
    "policy",
    "records_in",
    "records_ok",
    "resumed_from_generation",
    "retries",
    "source",
    "source_exhausted",
    "vertices",
}

#: The sharded runner shares the admission keys (``retries`` included:
#: the CLI and facade wrap sharded sources in RetryingSource too) and
#: swaps the serial checkpoint/resume keys for per-shard ones.
SHARDED_RUNNER_STATS_KEYS = (
    RUNNER_STATS_KEYS
    - {"last_checkpoint_age_seconds", "last_checkpoint_offset", "resumed_from_generation"}
) | {
    "merge_seconds",
    "replayed",
    "resumed_generations",
    "shard_offsets",
    "shard_records",
    "workers",
}

ENGINE_STATS_KEYS = {
    "batches",
    "candidates_pruned",
    "candidates_scored",
    "index_bands",
    "index_buckets",
    "index_build_seconds",
    "index_bytes",
    "index_built",
    "index_rows",
    "k",
    "pack_seconds",
    "packed_bytes",
    "pairs_scored",
    "scores_per_second",
    "scoring_seconds",
    "topk_queries",
    "vertices",
}

#: The pre-registry implementation's output on DIRTY (captured before
#: the refactor) — values *and* types must match forever.
DIRTY = [
    (0, 1),
    (1, 2),
    "3 4",
    "bad line",
    (2, 2),
    (-1, 5),
    (0, 1, "x"),
    {"not": "a record"},
    (5, 6, 7.5),
    "7 8 9.5",
]

PINNED_RUNNER_STATS = {
    "checkpoints_written": 0,
    "dead_letter_reasons": {
        "bad_record_type": 1,
        "bad_timestamp": 1,
        "negative_vertex": 1,
        "non_integer_vertex": 1,
        "self_loop": 1,
    },
    "dead_lettered": 5,
    "dropped": 0,
    "duplicate_edges_detected": 0,
    "dynamic": False,
    "last_checkpoint_age_seconds": None,
    "last_checkpoint_offset": None,
    "normalized": 0,
    "normalized_reasons": {},
    "offset": 10,
    "policy": "quarantine",
    "records_in": 10,
    "records_ok": 5,
    "resumed_from_generation": None,
    "retries": 0,
    "source": "fixture",
    "source_exhausted": True,
    "vertices": 9,
}


def dirty_runner():
    return StreamRunner(
        IteratorEdgeSource(DIRTY, name="fixture"),
        config=SketchConfig(k=16, seed=9),
        clock=lambda: 0.0,
    )


def warm_engine():
    predictor = MinHashLinkPredictor(SketchConfig(k=16, seed=9, track_witnesses=True))
    for u, v in [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (0, 3)]:
        predictor.update(u, v)
    engine = QueryEngine(predictor)
    engine.score_many([(0, 1), (1, 2), (0, 4)], "jaccard")
    engine.top_k(0, "jaccard", k=3)
    return engine


class TestRunnerStatsSchema:
    def test_exact_key_set(self):
        runner = dirty_runner()
        runner.run()
        assert set(runner.stats()) == RUNNER_STATS_KEYS

    def test_bit_identical_to_pre_registry_output(self):
        runner = dirty_runner()
        runner.run()
        stats = runner.stats()
        assert stats == PINNED_RUNNER_STATS
        for key, expected in PINNED_RUNNER_STATS.items():
            assert type(stats[key]) is type(expected), key

    def test_disabled_registry_keeps_the_schema(self):
        runner = StreamRunner(
            IteratorEdgeSource(DIRTY, name="fixture"),
            config=SketchConfig(k=16, seed=9),
            clock=lambda: 0.0,
            metrics=MetricsRegistry(enabled=False),
        )
        runner.run()
        assert set(runner.stats()) == RUNNER_STATS_KEYS


class TestShardedRunnerStatsSchema:
    def test_exact_key_set_reports_source_retries(self):
        flaky = FaultInjector(seed=7, io_error_rate=0.4, max_failures_per_offset=2).flaky(
            IteratorEdgeSource(DIRTY, name="fixture")
        )
        source = RetryingSource(
            flaky, RetryPolicy(max_attempts=4, base_delay=0.0, jitter=0.0, sleep=lambda _: None)
        )
        runner = ShardedRunner(source, workers=2, config=SketchConfig(k=16, seed=9))
        stats = runner.run()
        assert set(stats) == SHARDED_RUNNER_STATS_KEYS
        assert stats["retries"] == flaky.failures_injected > 0
        assert runner.metrics.get("ingest_source_retries").value == stats["retries"]


class TestEngineStatsSchema:
    def test_exact_key_set(self):
        assert set(warm_engine().stats()) == ENGINE_STATS_KEYS

    def test_pinned_deterministic_values(self):
        stats = warm_engine().stats()
        assert stats["vertices"] == 5
        assert stats["k"] == 16
        assert stats["batches"] == 2
        assert stats["pairs_scored"] == 7
        assert stats["topk_queries"] == 1
        assert stats["candidates_scored"] == 4
        assert stats["candidates_pruned"] == 0
        assert stats["index_built"] is True
        assert stats["index_buckets"] == 45
        # An int32 member per (vertex, band), 16 bytes per bucket.
        assert stats["index_bytes"] == 4 * 5 * 16 + 16 * 45
        assert stats["index_bands"] == 16
        assert stats["index_rows"] == 1

    def test_counter_types_survive_refresh(self):
        engine = warm_engine()
        engine.refresh()
        stats = engine.stats()
        assert stats["batches"] == 0 and type(stats["batches"]) is int
        assert stats["pairs_scored"] == 0 and type(stats["pairs_scored"]) is int
        assert stats["scoring_seconds"] == 0.0
        assert type(stats["scoring_seconds"]) is float


class TestDefensiveSnapshots:
    def test_mutating_runner_stats_cannot_corrupt_internals(self):
        runner = dirty_runner()
        runner.run()
        stats = runner.stats()
        stats["records_in"] = -999
        stats["dead_letter_reasons"]["self_loop"] = -999
        stats["dead_letter_reasons"]["forged_reason"] = 1
        stats.clear()
        fresh = runner.stats()
        assert fresh == PINNED_RUNNER_STATS
        assert "forged_reason" not in fresh["dead_letter_reasons"]

    def test_runner_stats_returns_fresh_objects(self):
        runner = dirty_runner()
        runner.run()
        first, second = runner.stats(), runner.stats()
        assert first is not second
        assert first["dead_letter_reasons"] is not second["dead_letter_reasons"]

    def test_mutating_engine_stats_cannot_corrupt_internals(self):
        engine = warm_engine()
        stats = engine.stats()
        expected = dict(stats)
        stats["pairs_scored"] = -999
        stats.clear()
        assert engine.stats() == expected


class TestSharedRegistry:
    def test_runner_exposes_its_instruments(self):
        runner = dirty_runner()
        runner.run()
        names = {i.name for i in runner.metrics.instruments()}
        assert "ingest_records_total" in names
        assert "ingest_dead_letters_total" in names
        records = runner.metrics.get("ingest_records_total")
        by_outcome = {
            labels["outcome"]: series.value for labels, series in records.series()
        }
        assert by_outcome["ok"] == 5
        assert by_outcome["dead_letter"] == 5

    def test_engine_exposes_its_instruments(self):
        engine = warm_engine()
        names = {i.name for i in engine.metrics.instruments()}
        assert "query_pairs_scored_total" in names
        assert engine.metrics.get("query_pairs_scored_total").value == 7

    def test_external_registry_is_shared(self):
        registry = MetricsRegistry()
        runner = StreamRunner(
            IteratorEdgeSource([(0, 1), (1, 2)], name="fixture"),
            config=SketchConfig(k=16, seed=9),
            metrics=registry,
        )
        runner.run()
        assert runner.metrics is registry
        assert registry.get("ingest_records_total") is not None


class TestDisabledOverhead:
    def test_noop_inc_allocates_nothing(self):
        """A disabled registry must add no allocations per edge: the
        hot path's ``handle.inc()`` on the shared no-op is free."""
        handle = MetricsRegistry(enabled=False).counter(
            "ingest_records_total", labelnames=("outcome",)
        ).labels("ok")
        for _ in range(100):
            handle.inc()  # warm any lazy interpreter state
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(10_000):
            handle.inc()
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # Zero per-call allocations: any constant slack (< 1 KiB) is
        # interpreter noise, not O(records) growth.
        assert after - before < 1024

    def test_disabled_ingest_allocates_no_metric_state(self):
        registry = MetricsRegistry(enabled=False)
        runner = StreamRunner(
            IteratorEdgeSource([(i, i + 1) for i in range(50)], name="fixture"),
            config=SketchConfig(k=16, seed=9),
            metrics=registry,
        )
        runner.run()
        assert registry.instruments() == []
        assert runner.records_ok == 0  # bookkeeping explicitly opted out

    def test_numpy_scores_unaffected_by_registry_choice(self):
        predictor = MinHashLinkPredictor(SketchConfig(k=16, seed=9))
        for u, v in [(0, 1), (0, 2), (1, 2), (2, 3)]:
            predictor.update(u, v)
        pairs = np.array([[0, 1], [1, 2]], dtype=np.int64)
        enabled = QueryEngine(predictor, metrics=MetricsRegistry())
        disabled = QueryEngine(predictor, metrics=MetricsRegistry(enabled=False))
        np.testing.assert_array_equal(
            enabled.score_many(pairs, "jaccard"), disabled.score_many(pairs, "jaccard")
        )
