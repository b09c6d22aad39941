"""The admission stage: one record contract for serial and sharded ingest.

Every ingest path is ``source → Admission → sink``.  :class:`Admission`
judges each :class:`~repro.stream.sources.SourceRecord` through the
stream's :class:`~repro.stream.policies.StreamGuard` and settles the
verdict: an accepted :class:`~repro.graph.stream.StreamRecord` goes on
to the sink, anything else becomes a dead letter, a counted drop, or a
:class:`~repro.errors.DeadLetterError` under ``policy="strict"``.  The
sink is the only thing that differs between the runners — the serial
:class:`~repro.stream.runner.StreamRunner` folds accepted records into
a local predictor through :class:`SpanFolder`, the sharded
:class:`~repro.parallel.ShardedRunner` routes them to the worker that
owns their shard (and the worker folds them through the same
:class:`SpanFolder`).

Deletions are consumed only by dynamic predictors (built from
``SketchConfig(dynamic_mode=True)``); on an append-only sink any delete
dead-letters with reason ``unsupported_delete``, and a delete of an
edge the guarded stream never added dead-letters as
``delete_unseen_edge``.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.core.dynamic import DynamicMinHashPredictor
from repro.errors import ConfigurationError, DeadLetterError
from repro.graph.stream import StreamRecord
from repro.obs.registry import MetricsRegistry
from repro.stream.deadletter import (
    DeadLetter,
    DeadLetterSink,
    MemoryDeadLetters,
    ordered_by_reason,
)
from repro.stream.policies import PolicySet, StreamGuard
from repro.stream.sources import EdgeSource, RetryingSource, SourceRecord

__all__ = ["Admission", "SpanFolder"]


def _reason_counts(counter) -> Dict[str, int]:
    """Per-reason counts of a ``{reason}`` counter, in vocabulary order."""
    return ordered_by_reason(
        {labels["reason"]: int(series.value) for labels, series in counter.series()}
    )


class Admission:
    """Judge raw records into accepted stream records or dead letters.

    Besides the verdicts it owns the ingest instruments both runners
    share: dead-letter and repair reasons, source retries, and the run
    time and consumption rate (:meth:`ran`).

    Parameters
    ----------
    source:
        The runner's source; its retry count (when it is a
        :class:`~repro.stream.sources.RetryingSource`) is exported as
        the ``ingest_source_retries`` gauge and the ``retries`` stat.
    metrics / records / reject_labels:
        The runner's registry and its ``ingest_records_total`` counter.
        The runner registers that counter (its label set differs per
        runner) and counts its own accepted outcomes; admission counts
        the rejected ones, labelled ``outcome`` plus ``reject_labels``
        (the sharded runner's ``shard="-"``: a rejected record belongs
        to no shard).
    dynamic:
        Whether the sink consumes deletes — a delete-admitting guard is
        refused for an append-only sink.
    dead_letters:
        Sink for quarantined records; default an in-memory sink.
    policy:
        ``"quarantine"`` routes violations aside; ``"strict"`` raises
        :class:`DeadLetterError` on the first one.
    self_loops:
        ``"quarantine"`` (visible in counters) or ``"drop"`` (silent,
        matching the eager file readers).
    policies / guard:
        A per-case :class:`~repro.stream.policies.PolicySet` (or its CLI
        string spelling) activating the casebook contract, or an
        explicit pre-configured :class:`StreamGuard` (to set
        ``hub_degree_limit``/``max_timestamp``, or to share detector
        state with a dead-letter replay) whose ``self_loops`` must match.
        Without either, the legacy parse-level contract holds.
    """

    def __init__(
        self,
        source: EdgeSource,
        metrics: MetricsRegistry,
        records,
        *,
        dynamic: bool,
        reject_labels: Optional[Dict[str, str]] = None,
        dead_letters: Optional[DeadLetterSink] = None,
        policy: str = "quarantine",
        self_loops: str = "quarantine",
        policies: Union[PolicySet, str, None] = None,
        guard: Optional[StreamGuard] = None,
    ) -> None:
        if policy not in ("quarantine", "strict"):
            raise ConfigurationError(f'policy must be "quarantine" or "strict", got {policy!r}')
        if guard is not None and policies is not None:
            raise ConfigurationError("pass policies or a pre-built guard, not both")
        if guard is not None:
            if guard.self_loops != self_loops:
                raise ConfigurationError(
                    "the guard's self_loops setting must match the runner's"
                )
            if guard.supports_deletes and not dynamic:
                raise ConfigurationError(
                    "a delete-admitting guard needs a dynamic predictor; "
                    "append-only sketches cannot retract edges "
                    "(build with SketchConfig(dynamic_mode=True))"
                )
        else:
            if isinstance(policies, str):
                policies = PolicySet.parse(policies)
            guard = StreamGuard(policies, self_loops=self_loops, supports_deletes=dynamic)
        self.source = source
        self.guard = guard
        self.policy = policy
        self.dead_letters = dead_letters or MemoryDeadLetters()
        self._records = records
        # Hot-path handles resolved once: admit() pays one bound
        # attribute add per rejected record, nothing else.
        extra = reject_labels or {}
        self._m_dead = records.labels(outcome="dead_letter", **extra)
        self._m_dropped = records.labels(outcome="dropped", **extra)
        self._m_strict_error = records.labels(outcome="strict_error", **extra)
        self._m_norm_removed = records.labels(outcome="normalized", **extra)
        self._m_dead_reasons = metrics.counter(
            "ingest_dead_letters_total",
            "Quarantined records by contract-violation reason",
            labelnames=("reason",),
        )
        self._m_normalized = metrics.counter(
            "ingest_normalized_total",
            "Normalize-mode repairs applied, by casebook case",
            labelnames=("reason",),
        )
        metrics.gauge(
            "ingest_source_retries", "Transient-failure retries by the source"
        ).set_function(self.retries)
        self._m_run_seconds = metrics.counter(
            "ingest_run_seconds_total", "Wall seconds spent inside run()"
        )
        self._m_rate = metrics.gauge(
            "ingest_records_per_second", "Consumption rate of the most recent run() call"
        )

    def admit(self, record: SourceRecord) -> Optional[StreamRecord]:
        """The accepted (possibly repaired) record, or ``None`` once a
        rejection is dead-lettered or counted; raises
        :class:`DeadLetterError` when the policy is strict."""
        verdict = self.guard.evaluate(record)
        disposition = verdict.disposition
        if disposition == "ok":
            return verdict.record
        if disposition == "normalized":
            for case in verdict.cases:
                self._m_normalized.labels(case).inc()
            if verdict.record is not None:
                return verdict.record
            self._m_norm_removed.inc()  # the repair was removal
        elif disposition == "drop":
            self._m_dropped.inc()  # silently dropped self-loop
        elif disposition == "strict" or self.policy == "strict":
            self._m_strict_error.inc()
            raise DeadLetterError(
                f"offset {record.offset}"
                + (f" (line {record.line_number})" if record.line_number else "")
                + f": {verdict.detail}",
                reason=verdict.reason,
                offset=record.offset,
            )
        else:  # quarantine
            raw = record.value if isinstance(record.value, str) else repr(record.value)
            self.dead_letters.record(
                DeadLetter(
                    offset=record.offset,
                    reason=verdict.reason,
                    raw=raw,
                    line_number=record.line_number,
                    detail=verdict.detail,
                )
            )
            self._m_dead.inc()
            self._m_dead_reasons.labels(verdict.reason).inc()
        return None

    def ran(self, consumed: int, elapsed: float) -> None:
        """Account one ``run()`` call that consumed ``consumed`` records
        in ``elapsed`` wall seconds."""
        self._m_run_seconds.inc(elapsed)
        if elapsed > 0:
            self._m_rate.set(consumed / elapsed)

    def retries(self) -> int:
        return self.source.retries if isinstance(self.source, RetryingSource) else 0

    @property
    def records_in(self) -> int:
        """Records consumed, every outcome included."""
        return int(self._records.total())

    @property
    def records_ok(self) -> int:
        """Records the sink accepted (every ``outcome="ok"`` series)."""
        return int(
            sum(
                series.value
                for labels, series in self._records.series()
                if labels["outcome"] == "ok"
            )
        )

    def dead_letter_reasons(self) -> Dict[str, int]:
        """Per-reason quarantine counts from the registry, stably
        ordered by the reason vocabulary (a fresh dict every call — a
        caller mutating it cannot corrupt runner state)."""
        return _reason_counts(self._m_dead_reasons)

    def stats(self) -> Dict[str, object]:
        """The admission counters both runners report, as read from the
        registry (a defensive snapshot)."""
        dead_reasons = self.dead_letter_reasons()
        norm_reasons = _reason_counts(self._m_normalized)
        return {
            "records_in": self.records_in,
            "records_ok": self.records_ok,
            "dead_lettered": int(self._m_dead.value),
            "dead_letter_reasons": dead_reasons,
            "dropped": int(self._m_dropped.value),
            "normalized": int(sum(norm_reasons.values())),
            "normalized_reasons": norm_reasons,
            # Duplicate arrivals the guard caught (casebook policies
            # only — the legacy contract keeps no seen-edge state).
            # Duplicates that *reach* the predictor are idempotent on
            # the sketches but inflate degrees; see
            # MinHashLinkPredictor.update on the estimator bias.
            "duplicate_edges_detected": dead_reasons.get("duplicate_edge", 0)
            + norm_reasons.get("duplicate_edge", 0),
            "retries": self.retries(),
        }


class SpanFolder:
    """Fold accepted records into a predictor, in spans of ``batch_size``.

    Records are buffered and applied through the block-ingest kernel
    (``update_block``/``delete_block``); a span ends when it reaches
    ``batch_size`` records, when the op changes (the batched kernel
    applies one op per call, so order across ops is kept exactly), and
    whenever the owner calls :meth:`flush` — which it must before every
    checkpoint and before handing the predictor out, so state reflects
    every record it accepted.  A span of one record is applied with the
    scalar ``update``/``delete`` (block setup costs more than it saves
    on a single edge), so ``batch_size`` ``0``/``1`` is the scalar path.
    Either way the result is bit-identical to scalar ingestion, per the
    ``update_block`` contract.
    """

    def __init__(self, predictor, batch_size: int) -> None:
        self.predictor = predictor
        self.batch_size = batch_size
        self._us: list = []
        self._vs: list = []
        self._ts: list = []
        self._delete = False

    def add(self, delete: bool, u: int, v: int, timestamp: float) -> None:
        """Buffer one accepted record (``delete`` marks a retraction)."""
        if delete != self._delete and self._us:
            self.flush()
        self._delete = delete
        self._us.append(u)
        self._vs.append(v)
        self._ts.append(timestamp)
        if len(self._us) >= self.batch_size:
            self.flush()

    def flush(self) -> None:
        """Apply every buffered record to the predictor."""
        us, vs, ts = self._us, self._vs, self._ts
        if not us:
            return
        self._us, self._vs, self._ts = [], [], []
        predictor = self.predictor
        if not isinstance(predictor, DynamicMinHashPredictor):
            # Append-only predictors never see a delete: admission
            # dead-letters them before they reach a sink.
            if len(us) == 1:
                predictor.update(us[0], vs[0])
            else:
                predictor.update_block(us, vs)
        elif len(us) == 1:
            (predictor.delete if self._delete else predictor.update)(us[0], vs[0], ts[0])
        else:
            (predictor.delete_block if self._delete else predictor.update_block)(us, vs, ts)
