"""The deletion-tolerant stream path: records, guard, runners, replay.

Everything the fully dynamic redesign added between the parser and the
predictor: the typed :class:`StreamRecord` contract and its tuple/Edge
back-compat shims, the guard's three new judgements (``bad_op``,
``delete_unseen_edge``, ``unsupported_delete``), the serial and
sharded runners over op-bearing streams, dynamic checkpointing through
the runner, and the deletion-bearing casebook corpus.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DynamicMinHashPredictor, SketchConfig
from repro.errors import ConfigurationError, StreamFormatError
from repro.graph.io import parse_stream_record
from repro.graph.stream import Edge, StreamRecord
from repro.parallel import ShardedRunner
from repro.stream import PolicySet, StreamGuard, StreamRunner
from repro.stream.casebook import check_casebook, sketch_fingerprint
from repro.stream.policies import ContractViolation, coerce_stream_record
from repro.stream.sources import IteratorEdgeSource, SourceRecord
from tests.stream.reference import fold_accepted


class TestStreamRecordGrammar:
    def test_plain_line_is_an_add(self):
        record = parse_stream_record("3 4 7.5")
        assert record == StreamRecord("add", 3, 4, 7.5, 1.0)

    @pytest.mark.parametrize("token", ["+", "add"])
    def test_explicit_add_tokens(self, token):
        assert parse_stream_record(f"{token} 3 4").op == "add"

    @pytest.mark.parametrize("token", ["-", "delete", "del"])
    def test_delete_tokens(self, token):
        record = parse_stream_record(f"{token} 3 4 9")
        assert record.op == "delete"
        assert (record.u, record.v, record.timestamp) == (3, 4, 9.0)

    def test_unknown_op_token_is_bad_op(self):
        with pytest.raises(StreamFormatError) as excinfo:
            parse_stream_record("upsert 3 4 9")
        assert excinfo.value.reason == "bad_op"
        assert "op:" in str(excinfo.value)

    def test_edge_view(self):
        record = StreamRecord.delete_edge(5, 6, 2.0)
        assert record.edge == Edge(5, 6, 2.0)


class TestCoercionShims:
    def test_tuple_coerces_to_add_record(self):
        parsed = coerce_stream_record(SourceRecord(11, (3, 4), 1))
        assert parsed == StreamRecord("add", 3, 4, 11.0, 1.0)

    def test_edge_like_triple_carries_timestamp(self):
        parsed = coerce_stream_record(SourceRecord(0, (3, 4, 9.5), 1))
        assert parsed.timestamp == 9.5

    def test_stream_record_fields_are_validated_not_trusted(self):
        hostile = StreamRecord("add", -1, 4, 0.0, 1.0)
        with pytest.raises(ContractViolation) as excinfo:
            coerce_stream_record(SourceRecord(0, hostile, 1))
        assert excinfo.value.reason == "negative_vertex"

    def test_stream_record_bad_op_is_named(self):
        hostile = StreamRecord("upsert", 1, 4, 0.0, 1.0)
        with pytest.raises(ContractViolation) as excinfo:
            coerce_stream_record(SourceRecord(0, hostile, 1))
        assert excinfo.value.reason == "bad_op"


class TestGuardDeleteSemantics:
    def test_append_only_guard_names_unsupported_delete(self):
        guard = StreamGuard(PolicySet())
        verdict = guard.evaluate(SourceRecord(0, "- 3 4", 1))
        assert verdict.disposition == "quarantine"
        assert verdict.reason == "unsupported_delete"

    def test_delete_of_unseen_edge_is_named(self):
        guard = StreamGuard(PolicySet(), supports_deletes=True)
        verdict = guard.evaluate(SourceRecord(0, "- 3 4", 1))
        assert verdict.disposition == "quarantine"
        assert verdict.reason == "delete_unseen_edge"

    def test_accepted_delete_retracts_guard_state(self):
        guard = StreamGuard(PolicySet(), supports_deletes=True)
        assert guard.evaluate(SourceRecord(0, "3 4 1", 1)).disposition == "ok"
        verdict = guard.evaluate(SourceRecord(1, "- 3 4 2", 2))
        assert verdict.disposition == "ok"
        assert verdict.record.op == "delete"
        # The edge is gone: re-adding it is fresh, not a duplicate.
        assert guard.evaluate(SourceRecord(2, "3 4 3", 3)).disposition == "ok"

    def test_pass_through_guard_still_blocks_deletes(self):
        guard = StreamGuard(None)  # legacy parse-level contract
        verdict = guard.evaluate(SourceRecord(0, "- 3 4", 1))
        assert verdict.reason == "unsupported_delete"


OPS_STREAM = [
    "1 2 10",
    "2 3 11",
    "+ 3 4 12",
    "- 1 2 13",
    "delete 2 3 14",
    "1 2 15",  # re-add after retraction
    "- 7 8 16",  # never added: delete_unseen_edge
]


class TestDynamicRunner:
    def config(self):
        return SketchConfig(k=16, seed=5, dynamic_mode=True)

    def test_scalar_and_batched_agree(self):
        # One leg (adds and deletes split into runs for the block
        # kernel) and legs of one record (the scalar update/delete)
        # both equal the per-record reference loop.
        reference = fold_accepted(
            OPS_STREAM,
            DynamicMinHashPredictor(self.config()),
            guard=StreamGuard(PolicySet(), supports_deletes=True),
        )
        for leg in (None, 1):
            runner = StreamRunner(
                IteratorEdgeSource(OPS_STREAM, name="ops"),
                config=self.config(),
                guard=StreamGuard(PolicySet(), supports_deletes=True),
            )
            while not runner.run(max_records=leg)["source_exhausted"]:
                pass
            stats = runner.stats()
            assert stats["dynamic"] is True
            assert stats["records_ok"] == 6
            assert stats["dead_letter_reasons"] == {"delete_unseen_edge": 1}
            assert sketch_fingerprint(runner.predictor) == sketch_fingerprint(reference)

    def test_append_only_runner_quarantines_deletes(self):
        runner = StreamRunner(
            IteratorEdgeSource(OPS_STREAM, name="ops"),
            config=SketchConfig(k=16, seed=5),
        )
        stats = runner.run()
        assert stats["dynamic"] is False
        assert stats["dead_letter_reasons"] == {"unsupported_delete": 3}

    def test_delete_admitting_guard_needs_dynamic_predictor(self):
        with pytest.raises(ConfigurationError):
            StreamRunner(
                IteratorEdgeSource(OPS_STREAM, name="ops"),
                config=SketchConfig(k=16, seed=5),
                guard=StreamGuard(PolicySet(), supports_deletes=True),
            )

    def test_retraction_matches_never_adding(self):
        runner = StreamRunner(
            IteratorEdgeSource(["1 2 10", "3 4 11", "- 3 4 12"], name="churn"),
            config=self.config(),
        )
        runner.run()
        reference = StreamRunner(
            IteratorEdgeSource(["1 2 10"], name="plain"), config=self.config()
        )
        reference.run()
        ours = runner.predictor
        theirs = reference.predictor
        assert ours.degree(3) == 0
        assert ours.score(3, 4, "jaccard") == pytest.approx(0.0)
        assert ours.score(1, 2, "jaccard") == pytest.approx(
            theirs.score(1, 2, "jaccard")
        )

    def test_checkpoint_resume_under_deletions(self, tmp_path):
        # The stateless pass-through guard makes the stream's
        # judgements offset-independent, so kill-and-resume must be
        # bit-identical (a stateful guard's seen-set is deliberately
        # not checkpointed — same as the append-only contract).
        from repro.stream import CheckpointManager

        lines = OPS_STREAM * 3
        config = self.config()
        first = StreamRunner(
            IteratorEdgeSource(lines, name="ops"),
            config=config,
            checkpoint_manager=CheckpointManager(tmp_path / "ck"),
            checkpoint_every=5,
        )
        first.run(max_records=11)  # dies mid-stream, checkpoint at 10
        resumed = StreamRunner(
            IteratorEdgeSource(lines, name="ops"),
            config=config,
            checkpoint_manager=CheckpointManager(tmp_path / "ck"),
            checkpoint_every=5,
        )
        assert resumed.resume()
        assert isinstance(resumed.predictor, DynamicMinHashPredictor)
        resumed.run()
        uninterrupted = StreamRunner(
            IteratorEdgeSource(lines, name="ops"), config=config
        )
        uninterrupted.run()
        assert sketch_fingerprint(resumed.predictor) == sketch_fingerprint(
            uninterrupted.predictor
        )


class TestShardedDynamicRunner:
    def test_sharded_equals_serial_under_deletes(self):
        lines = []
        for i in range(120):
            u, v = i % 17, (i * 5 + 1) % 17
            if u != v:
                lines.append(f"{u} {v} {i}")
                if i % 4 == 3:
                    lines.append(f"- {u} {v} {i}.5")
        config = SketchConfig(k=16, seed=5, dynamic_mode=True)
        serial = StreamRunner(
            IteratorEdgeSource(lines, name="churn"),
            config=config,
            guard=StreamGuard(PolicySet(), supports_deletes=True),
        )
        serial_stats = serial.run()
        sharded = ShardedRunner(
            IteratorEdgeSource(lines, name="churn"),
            workers=3,
            config=config,
            guard=StreamGuard(PolicySet(), supports_deletes=True),
            chunk_records=8,
        )
        sharded_stats = sharded.run()
        assert sharded_stats["dynamic"] is True
        assert sharded_stats["records_ok"] == serial_stats["records_ok"]
        assert sketch_fingerprint(sharded.predictor) == sketch_fingerprint(
            serial.predictor
        )


class TestDeletionCasebook:
    def test_with_deletes_check_passes_serially(self):
        report = check_casebook(with_deletes=True, per_case=1)
        assert report.ok, report.mismatches

    def test_delete_unseen_edge_is_in_the_matrix(self):
        report = check_casebook(with_deletes=True, per_case=1)
        cases = {row.case for row in report.rows}
        assert "delete_unseen_edge" in cases
        assert "bad_op" in cases

    def test_dynamic_mode_required(self):
        with pytest.raises(ConfigurationError):
            check_casebook(with_deletes=True, config=SketchConfig(k=16, seed=0))
