"""StreamRunner: consumption, quarantine policy, checkpoints, stats."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MinHashLinkPredictor, SketchConfig
from repro.errors import ConfigurationError, DeadLetterError
from repro.stream import (
    CheckpointManager,
    FileDeadLetters,
    FileEdgeSource,
    IteratorEdgeSource,
    MemoryDeadLetters,
    StreamRunner,
)

CLEAN = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]


def make_runner(records, **kwargs):
    kwargs.setdefault("config", SketchConfig(k=16, seed=9))
    return StreamRunner(IteratorEdgeSource(records), **kwargs)


class TestHappyPath:
    def test_clean_stream_matches_direct_updates(self):
        runner = make_runner(CLEAN)
        stats = runner.run()
        reference = MinHashLinkPredictor(SketchConfig(k=16, seed=9))
        for u, v in CLEAN:
            reference.update(u, v)
        assert stats["records_in"] == stats["records_ok"] == len(CLEAN)
        assert stats["dead_lettered"] == 0
        assert stats["offset"] == len(CLEAN)
        assert stats["source_exhausted"] is True
        for vertex in reference.export_arrays().vertex_ids.tolist():
            assert np.array_equal(
                reference.sketch(vertex).values, runner.predictor.sketch(vertex).values
            )

    def test_file_source_end_to_end(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# header\n0 1\n0 2\n1 2\n")
        runner = StreamRunner(FileEdgeSource(path), config=SketchConfig(k=8, seed=1))
        stats = runner.run()
        assert stats["records_ok"] == 3
        assert runner.predictor.vertex_count == 3

    def test_max_records_bounds_one_call(self):
        runner = make_runner(CLEAN)
        runner.run(max_records=2)
        assert runner.offset == 2
        assert runner.source_exhausted is False
        runner.run()  # picks up where it left off
        assert runner.offset == len(CLEAN)
        assert runner.records_in == len(CLEAN)


class TestQuarantine:
    DIRTY = [
        (0, 1),
        "garbage line here",   # bad_arity (3 tokens)... actually non-integer
        (2, 2),                # self-loop
        (-1, 3),               # negative vertex
        (4, 5),
        ("a", "b"),            # non-integer tuple
        (6, 7, "late"),        # bad timestamp
        {"u": 1},              # bad record type
        (8,),                  # bad arity tuple
        (9, 10),
    ]

    def test_dirty_records_quarantined_with_reasons(self):
        sink = MemoryDeadLetters()
        runner = make_runner(self.DIRTY, dead_letters=sink)
        stats = runner.run()
        assert stats["records_ok"] == 3  # (0,1), (4,5), (9,10)
        assert stats["records_in"] == len(self.DIRTY)
        assert stats["offset"] == len(self.DIRTY)
        reasons = stats["dead_letter_reasons"]
        assert reasons["self_loop"] == 1
        assert reasons["negative_vertex"] == 1
        assert reasons["non_integer_vertex"] == 2  # text line + ("a","b")
        assert reasons["bad_timestamp"] == 1
        assert reasons["bad_record_type"] == 1
        assert reasons["bad_arity"] == 1
        assert sink.total == 7

    def test_entries_carry_offset_and_raw(self):
        sink = MemoryDeadLetters()
        make_runner(self.DIRTY, dead_letters=sink).run()
        by_reason = {entry.reason: entry for entry in sink.entries}
        assert by_reason["self_loop"].offset == 2
        assert by_reason["negative_vertex"].raw == "(-1, 3)"

    def test_self_loops_droppable_silently(self):
        runner = make_runner([(0, 1), (2, 2), (3, 4)], self_loops="drop")
        stats = runner.run()
        assert stats["dead_lettered"] == 0
        assert stats["dropped"] == 1
        assert stats["records_ok"] == 2

    def test_strict_policy_fails_fast(self):
        runner = make_runner([(0, 1), (2, 2), (3, 4)], policy="strict")
        with pytest.raises(DeadLetterError) as excinfo:
            runner.run()
        assert excinfo.value.reason == "self_loop"
        assert excinfo.value.offset == 1
        # The bad record was not committed: a fix-and-rerun resumes there.
        assert runner.offset == 1

    def test_file_sink_appends_json_lines(self, tmp_path):
        import json

        path = tmp_path / "dead.jsonl"
        with FileDeadLetters(path) as sink:
            make_runner(self.DIRTY, dead_letters=sink).run()
        entries = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(entries) == 7
        assert {"offset", "reason", "raw", "line_number", "detail"} <= set(entries[0])

    def test_configuration_errors(self):
        with pytest.raises(ConfigurationError):
            make_runner(CLEAN, policy="lenient")
        with pytest.raises(ConfigurationError):
            make_runner(CLEAN, self_loops="allow")
        with pytest.raises(ConfigurationError):
            make_runner(CLEAN, checkpoint_every=10)  # no manager


class TestCheckpointing:
    def test_cadence_counts_consumed_records(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        # 2 good + 2 bad + 2 good: cadence 3 must fire at records 3 and 6
        records = [(0, 1), (1, 2), (5, 5), (6, 6), (2, 3), (3, 4)]
        runner = make_runner(records, checkpoint_manager=manager, checkpoint_every=3)
        stats = runner.run()
        assert stats["checkpoints_written"] == 2
        assert manager.load_latest().offset == 6

    def test_final_checkpoint_on_exhaustion(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        runner = make_runner(CLEAN, checkpoint_manager=manager, checkpoint_every=1000)
        runner.run()
        assert manager.load_latest().offset == len(CLEAN)

    def test_resume_skips_processed_prefix(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        first = make_runner(CLEAN, checkpoint_manager=manager, checkpoint_every=2)
        first.run(max_records=4)  # checkpoints at 2 and 4

        second = make_runner(CLEAN, checkpoint_manager=manager)
        assert second.resume() is True
        assert second.offset == 4
        second.run()
        assert second.records_in == 1  # only the unprocessed suffix
        reference = MinHashLinkPredictor(SketchConfig(k=16, seed=9))
        for u, v in CLEAN:
            reference.update(u, v)
        assert second.predictor.score(0, 3, "adamic_adar") == reference.score(
            0, 3, "adamic_adar"
        )

    def test_resume_after_consumption_rejected(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        runner = make_runner(CLEAN, checkpoint_manager=manager, checkpoint_every=2)
        runner.run(max_records=3)
        with pytest.raises(ConfigurationError, match="double-count"):
            runner.resume()

    def test_resume_without_manager_rejected(self):
        with pytest.raises(ConfigurationError):
            make_runner(CLEAN).resume()


class TestStats:
    def test_checkpoint_age_uses_injected_clock(self, tmp_path):
        now = [100.0]
        manager = CheckpointManager(tmp_path)
        runner = make_runner(
            CLEAN, checkpoint_manager=manager, checkpoint_every=2, clock=lambda: now[0]
        )
        runner.run(max_records=2)  # checkpoint at t=100
        now[0] = 107.5
        stats = runner.stats()
        assert stats["last_checkpoint_age_seconds"] == 7.5
        assert stats["last_checkpoint_offset"] == 2

    def test_stats_before_any_checkpoint(self):
        stats = make_runner(CLEAN).stats()
        assert stats["last_checkpoint_age_seconds"] is None
        assert stats["last_checkpoint_offset"] is None
        assert stats["resumed_from_generation"] is None
        assert stats["vertices"] == 0
