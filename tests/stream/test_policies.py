"""The per-case policy layer: PolicySet, StreamGuard, and the runners.

Every casebook case is pinned in all three modes: ``strict`` raises,
``quarantine`` counts and continues, ``normalize`` repairs (or falls
back when no sound repair exists) and counts the repair.
"""

from __future__ import annotations

import pytest

from repro.core import SketchConfig
from repro.core.windowed import WindowedMinHashPredictor
from repro.errors import ConfigurationError, DeadLetterError
from repro.graph.stream import StreamRecord
from repro.stream import (
    DEFAULT_POLICIES,
    IteratorEdgeSource,
    MODES,
    PolicySet,
    REASONS,
    StreamGuard,
    StreamRunner,
)
from repro.stream.policies import ContractViolation, coerce_stream_record
from repro.stream.sources import SourceRecord


def record(value, offset=0, line_number=None):
    return SourceRecord(offset, value, line_number)


class TestPolicySet:
    def test_defaults_cover_every_reason(self):
        policies = PolicySet()
        assert set(policies.as_dict()) == set(REASONS)
        assert policies.as_dict() == DEFAULT_POLICIES

    def test_uniform(self):
        for mode in MODES:
            policies = PolicySet.uniform(mode)
            assert set(policies.as_dict().values()) == {mode}

    def test_parse_spellings(self):
        assert PolicySet.parse("") == PolicySet()
        assert PolicySet.parse("default") == PolicySet()
        assert PolicySet.parse("strict") == PolicySet.uniform("strict")
        mixed = PolicySet.parse("duplicate_edge=quarantine, hub_anomaly=strict")
        assert mixed.mode_for("duplicate_edge") == "quarantine"
        assert mixed.mode_for("hub_anomaly") == "strict"
        assert mixed.mode_for("bad_arity") == DEFAULT_POLICIES["bad_arity"]

    def test_unknown_case_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown casebook case"):
            PolicySet({"bogus_case": "normalize"})

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="mode"):
            PolicySet({"bad_arity": "retry"})
        with pytest.raises(ConfigurationError):
            PolicySet.uniform("retry")
        with pytest.raises(ConfigurationError):
            PolicySet.parse("bad_arity")  # a case name is not a mode

    def test_malformed_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            PolicySet.parse("bad_arity=strict,oops=")

    def test_unlisted_reason_fails_safe(self):
        assert PolicySet.uniform("normalize").mode_for("future_reason") == "quarantine"

    def test_repr_shows_only_overrides(self):
        assert repr(PolicySet()) == "PolicySet()"
        assert "hub_anomaly" in repr(PolicySet({"hub_anomaly": "strict"}))


class TestCoerceRecordHardening:
    def test_tuple_nonfinite_timestamp_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ContractViolation) as excinfo:
                coerce_stream_record(record((1, 2, bad)))
            assert excinfo.value.reason == "nonfinite_timestamp"

    def test_tuple_finite_timestamp_accepted(self):
        assert coerce_stream_record(record((1, 2, 7.5))) == StreamRecord.add_edge(1, 2, 7.5)


#: The full matrix: per case, the stream state to prime, the hostile
#: record, and the expected disposition under each uniform mode.
#: ``normalize`` expectations are (disposition, repaired (u, v) or None).
CASE_MATRIX = [
    ("bad_arity", [], "1 2 3 4", ("quarantine", None)),
    ("non_integer_vertex", [], "alice bob", ("quarantine", None)),
    ("negative_vertex", [], "-1 2", ("quarantine", None)),
    ("bad_record_type", [], {"u": 1}, ("quarantine", None)),
    ("bad_timestamp", [], "1 2 yesterday", ("normalized", (1, 2))),
    ("nonfinite_timestamp", [], "1 2 nan", ("normalized", (1, 2))),
    ("mixed_delimiter", [], "1,2", ("normalized", (1, 2))),
    ("bad_encoding", [], "﻿1 2", ("normalized", (1, 2))),
    ("self_loop", [], "7 7", ("normalized", None)),
    ("duplicate_edge", ["1 2 10"], "1 2 11", ("normalized", None)),
    ("out_of_order_timestamp", ["1 2 100"], "3 4 5", ("normalized", (3, 4))),
    ("far_future_timestamp", [], "3 4 5000", ("normalized", (3, 4))),
    ("hub_anomaly", ["0 1 1", "0 2 2"], "0 3 3", ("normalized", None)),
]


def make_guard(mode):
    # Tight thresholds so the stream-level cases fire on tiny fixtures.
    return StreamGuard(
        PolicySet.uniform(mode), hub_degree_limit=2, max_timestamp=1000.0
    )


def prime(guard, lines):
    for offset, line in enumerate(lines):
        verdict = guard.evaluate(record(line, offset=offset))
        assert verdict.disposition == "ok", f"priming line {line!r} not clean"


@pytest.mark.parametrize(
    "case,priming,hostile,normalize_expect",
    CASE_MATRIX,
    ids=[row[0] for row in CASE_MATRIX],
)
class TestCaseMatrix:
    def test_strict_mode_escalates(self, case, priming, hostile, normalize_expect):
        guard = make_guard("strict")
        prime(guard, priming)
        verdict = guard.evaluate(record(hostile, offset=len(priming)))
        assert verdict.disposition == "strict"
        assert verdict.reason == case

    def test_quarantine_mode_names_the_case(
        self, case, priming, hostile, normalize_expect
    ):
        guard = make_guard("quarantine")
        prime(guard, priming)
        verdict = guard.evaluate(record(hostile, offset=len(priming)))
        assert verdict.disposition == "quarantine"
        assert verdict.reason == case

    def test_normalize_mode_repairs_or_falls_back(
        self, case, priming, hostile, normalize_expect
    ):
        disposition, repaired = normalize_expect
        guard = make_guard("normalize")
        prime(guard, priming)
        verdict = guard.evaluate(record(hostile, offset=len(priming)))
        assert verdict.disposition == disposition
        if disposition == "normalized":
            assert case in verdict.cases
            if repaired is None:
                assert verdict.record is None  # repaired by removal
            else:
                assert (verdict.record.u, verdict.record.v) == repaired
        else:  # unrepairable: fell back to quarantine under its own name
            assert verdict.reason == case


class TestGuardSemantics:
    def test_passthrough_guard_keeps_legacy_contract(self):
        guard = StreamGuard(None)
        assert not guard.active
        # Stream-level cases do not exist without policies: a duplicate
        # and a regressing timestamp both pass.
        assert guard.evaluate(record("1 2 10", 0)).disposition == "ok"
        assert guard.evaluate(record("1 2 10", 1)).disposition == "ok"
        assert guard.evaluate(record("3 4 5", 2)).disposition == "ok"
        # Parse-level violations surface as plain quarantine verdicts.
        verdict = guard.evaluate(record("broken", 3))
        assert verdict.disposition == "quarantine"
        assert verdict.reason == "bad_arity"

    def test_state_commits_only_on_acceptance(self):
        guard = make_guard("quarantine")
        prime(guard, ["1 2 10"])
        # A quarantined duplicate must not advance the high-water mark
        # or degrees: judging is side-effect-free for rejected records.
        assert guard.evaluate(record("1 2 999", 1)).reason == "duplicate_edge"
        verdict = guard.evaluate(record("3 4 10", 2))
        assert verdict.disposition == "ok"  # 10 is still the high-water

    def test_out_of_order_clamps_to_high_water(self):
        guard = make_guard("normalize")
        prime(guard, ["1 2 100"])
        verdict = guard.evaluate(record("3 4 5", 1))
        assert verdict.record.timestamp == 100.0

    def test_far_future_clamps_to_horizon(self):
        guard = make_guard("normalize")
        verdict = guard.evaluate(record("3 4 99999", 0))
        assert verdict.record.timestamp == 1000.0
        assert verdict.cases == ("far_future_timestamp",)

    def test_duplicate_named_before_out_of_order(self):
        # A verbatim re-send carries a stale timestamp too; its identity
        # as a duplicate must win the naming.
        guard = make_guard("quarantine")
        prime(guard, ["1 2 10", "3 4 20"])
        verdict = guard.evaluate(record("1 2 10", 2))
        assert verdict.reason == "duplicate_edge"

    def test_replay_override_judges_against_original_state(self):
        guard = make_guard("quarantine")
        prime(guard, ["1 2 10"])
        quarantined = guard.evaluate(record("1 2 11", 1))
        assert quarantined.disposition == "quarantine"
        # Replay under normalize: still a duplicate of the *original*
        # stream's state, so the repair is removal, not re-acceptance.
        replayed = guard.evaluate(
            record("1 2 11", 1), policies=PolicySet.uniform("normalize")
        )
        assert replayed.disposition == "normalized"
        assert replayed.record is None

    def test_reset_forgets_stream_state(self):
        guard = make_guard("quarantine")
        prime(guard, ["1 2 10"])
        guard.reset()
        assert guard.evaluate(record("1 2 10", 0)).disposition == "ok"

    def test_guard_validates_thresholds(self):
        with pytest.raises(ConfigurationError):
            StreamGuard(None, hub_degree_limit=0)
        with pytest.raises(ConfigurationError):
            StreamGuard(None, max_timestamp=float("inf"))
        with pytest.raises(ConfigurationError):
            StreamGuard(None, self_loops="explode")


DIRTY_STREAM = [
    "1 2 10",
    "3 4 20",
    "1 2 21",  # duplicate
    "5,6",  # mixed delimiter
    "7 7",  # self-loop
    "8 9 nan",  # nonfinite timestamp
]


class TestRunnerIntegration:
    def make_runner(self, policies=None, guard=None, **kwargs):
        return StreamRunner(
            IteratorEdgeSource(DIRTY_STREAM, name="dirty"),
            config=SketchConfig(k=16, seed=3),
            policies=policies,
            guard=guard,
            **kwargs,
        )

    def test_normalize_policy_repairs_and_counts(self):
        runner = self.make_runner(policies="normalize")
        stats = runner.run()
        # Repairs: duplicate removed, mixed re-split, self-loop removed,
        # nan substituted (then clamped up to the high-water mark).
        assert stats["dead_lettered"] == 0
        reasons = stats["normalized_reasons"]
        assert reasons["duplicate_edge"] == 1
        assert reasons["mixed_delimiter"] == 1
        assert reasons["self_loop"] == 1
        assert reasons["nonfinite_timestamp"] == 1
        assert stats["records_in"] == len(DIRTY_STREAM)
        # (1,2),(3,4),(5,6),(8,9) applied; duplicate and loop removed.
        assert stats["records_ok"] == 4
        assert stats["normalized"] == sum(reasons.values())

    def test_policy_string_is_parsed(self):
        runner = self.make_runner(policies="duplicate_edge=strict")
        with pytest.raises(DeadLetterError) as excinfo:
            runner.run()
        assert excinfo.value.reason == "duplicate_edge"
        assert excinfo.value.offset == 2
        # The poison record's offset is NOT committed: resume re-reads it.
        assert runner.offset == 2

    def test_default_policies_quarantine_semantic_anomalies(self):
        runner = self.make_runner(policies="default")
        stats = runner.run()
        # Defaults: duplicate/mixed normalize; nan quarantines.
        assert stats["normalized_reasons"]["duplicate_edge"] == 1
        assert stats["dead_letter_reasons"]["nonfinite_timestamp"] == 1

    def test_guard_and_policies_mutually_exclusive(self):
        with pytest.raises(ConfigurationError, match="not both"):
            self.make_runner(
                policies="normalize", guard=StreamGuard(PolicySet())
            )

    def test_guard_self_loops_must_match(self):
        with pytest.raises(ConfigurationError, match="self_loops"):
            self.make_runner(
                guard=StreamGuard(PolicySet(), self_loops="drop")
            )

    def test_prebuilt_guard_thresholds_apply(self):
        guard = StreamGuard(PolicySet.uniform("quarantine"), hub_degree_limit=1)
        runner = StreamRunner(
            IteratorEdgeSource(["0 1", "0 2", "3 4"], name="hub"),
            config=SketchConfig(k=16, seed=3),
            guard=guard,
        )
        stats = runner.run()
        assert stats["dead_letter_reasons"] == {"hub_anomaly": 1}

    def test_windowed_predictor_enforces_the_same_contract(self):
        # The casebook contract is predictor-agnostic: a windowed
        # predictor behind the same runner sees only repaired records.
        runner = StreamRunner(
            IteratorEdgeSource(DIRTY_STREAM, name="dirty"),
            predictor=WindowedMinHashPredictor(
                SketchConfig(k=16, seed=3), pane_edges=10, panes=2
            ),
            policies="normalize",
        )
        stats = runner.run()
        assert stats["records_ok"] == 4
        # Repairs plus the out-of-order clamps on the two substituted
        # (offset-based) timestamps, which fall below the high-water mark.
        assert stats["normalized"] == sum(stats["normalized_reasons"].values())
        assert stats["normalized_reasons"]["duplicate_edge"] == 1
        assert runner.predictor.vertex_count == 8

    def test_metrics_registry_carries_normalized_counter(self):
        runner = self.make_runner(policies="normalize")
        runner.run()
        counter = runner.metrics.get("ingest_normalized_total")
        by_reason = {
            labels["reason"]: series.value for labels, series in counter.series()
        }
        assert by_reason["duplicate_edge"] == 1
