"""The admission stage: one record contract for serial and sharded ingest.

Every ingest path is ``source → Admission → sink``.  :class:`Admission`
judges each :class:`~repro.stream.sources.SourceRecord` through the
stream's :class:`~repro.stream.policies.StreamGuard` and settles the
verdict: an accepted :class:`~repro.graph.stream.StreamRecord` goes on
to the sink, anything else becomes a dead letter, a counted drop, or a
:class:`~repro.errors.DeadLetterError` under ``policy="strict"``.  The
sink is the only thing that differs between the runners — the serial
:class:`~repro.stream.runner.StreamRunner` folds each accepted block
into a local predictor with :func:`fold_block`, the sharded
:class:`~repro.parallel.ShardedRunner` routes each record's two
arrivals to the workers owning their target vertices (and each worker
folds its routed block, with the arrivals it owns, through the same
:func:`fold_block`).

Records arrive in chunks (:meth:`Admission.admit_chunk`).  The text
lines of a chunk that pass a strict syntactic check are parsed in bulk
(:func:`~repro.graph.io.parse_edge_block`) and judged in bulk
(:meth:`~repro.stream.policies.StreamGuard.screen`); every other record
— a hostile line, a tuple, a line whose verdict the bulk judge cannot
vouch for — goes through the scalar
:meth:`~repro.stream.policies.StreamGuard.evaluate`, in stream order.
The accepted records of a chunk leave as one columnar
:class:`AcceptedBlock`.

Deletions are consumed only by dynamic predictors (built from
``SketchConfig(dynamic_mode=True)``); on an append-only sink any delete
dead-letters with reason ``unsupported_delete``, and a delete of an
edge the guarded stream never added dead-letters as
``delete_unseen_edge``.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.dynamic import DynamicMinHashPredictor
from repro.errors import ConfigurationError, DeadLetterError
from repro.graph.io import parse_edge_block
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

__all__ = [
    "Admission", "AcceptedBlock", "CHUNK_RECORDS", "close_records", "fold_block", "fold_run",
]

#: Records one :meth:`Admission.admit_chunk` call judges at most.
CHUNK_RECORDS = 4096


class AcceptedBlock(NamedTuple):
    """Accepted records in stream order, as columns: source offsets,
    endpoints, whether each is a delete, and timestamps."""

    offsets: np.ndarray
    us: np.ndarray
    vs: np.ndarray
    deletes: np.ndarray
    timestamps: np.ndarray

    def part(self, start: int, stop: int) -> "AcceptedBlock":
        """The records ``start:stop``."""
        return AcceptedBlock(*(column[start:stop] for column in self))

    @classmethod
    def concatenate(cls, blocks: Sequence["AcceptedBlock"]) -> "AcceptedBlock":
        return cls(*(np.concatenate(columns) for columns in zip(*blocks)))


def close_records(records) -> None:
    """Close a source's record iterator now (a file source parks its
    handle for the next leg), if it is a generator."""
    close = getattr(records, "close", None)
    if close is not None:
        close()


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
        #: Records of the last :meth:`admit_chunk` call judged so far.
        self.settled = 0
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

    def admit_chunk(
        self,
        records: Sequence[SourceRecord],
        sink: Callable[[AcceptedBlock], None],
    ) -> None:
        """Judge a chunk of records in stream order; hand the accepted
        ones to ``sink`` as one :class:`AcceptedBlock`.

        Verdicts, dead letters and guard state are exactly those of
        :meth:`admit` on each record in turn.  ``sink`` is called once,
        also when a strict rejection raises partway: then it gets the
        records accepted before the rejected one, and :attr:`settled`
        counts the records judged (the rejected one excluded).
        """
        self.settled = 0
        count = len(records)
        first = records[0].offset
        if records[-1].offset - first == count - 1:  # offsets ascend, so dense
            offsets = np.arange(first, first + count, dtype=np.int64)
        else:
            offsets = np.fromiter((record[0] for record in records), np.int64, count)
        parsed = parse_edge_block([record[1] for record in records])
        us, vs = parsed.us, parsed.vs
        timestamps = np.where(np.isnan(parsed.timestamps), offsets, parsed.timestamps)
        screen = self.guard.screen(parsed.clean, us, vs, timestamps)
        ok = screen.ok
        accepted = np.zeros(count, dtype=bool)
        typed_at: list = []  # (position, record) the scalar judge accepted
        try:
            scalar = np.flatnonzero(~ok).tolist()
            index = position = 0
            while True:
                stop = scalar[index] if index < len(scalar) else count
                if stop > position:
                    screen.commit(position, stop)
                    accepted[position:stop] = True
                    self.settled = stop
                if stop == count:
                    break
                typed = self.admit(records[stop])
                self.settled = stop + 1
                index += 1
                if typed is not None:
                    typed_at.append((stop, typed))
                    if screen.scalar_accepted(stop, typed):
                        scalar = (stop + 1 + np.flatnonzero(~ok[stop + 1 :])).tolist()
                        index = 0
                position = stop + 1
        finally:
            screen.close()
            deletes = np.zeros(count, dtype=bool)
            if typed_at:
                # Scalar slots are not ok: the screen never reads them.
                at = [slot for slot, _ in typed_at]
                accepted[at] = True
                us[at] = [typed.u for _, typed in typed_at]
                vs[at] = [typed.v for _, typed in typed_at]
                timestamps[at] = [typed.timestamp for _, typed in typed_at]
                deletes[at] = [typed.op == "delete" for _, typed in typed_at]
            chosen = np.flatnonzero(accepted)
            if len(chosen):
                sink(
                    AcceptedBlock(
                        offsets[chosen], us[chosen], vs[chosen], deletes[chosen], timestamps[chosen]
                    )
                )

    def consume(
        self,
        records: Iterator[SourceRecord],
        chunk_size: Callable[[int], int],
        sink: Callable[[AcceptedBlock], None],
        settle: Callable[[SourceRecord, int], None],
    ) -> Tuple[bool, int]:
        """Admit ``records`` chunk by chunk; returns ``(exhausted,
        consumed)``.

        ``chunk_size(consumed)`` bounds the next chunk, and ``0`` stops;
        then one record is read ahead to tell whether the source is
        exhausted.  ``settle(last, count)`` commits the ``count``
        records of a chunk judged up to ``last`` — also when judging
        stops partway (a strict rejection) or reading does (a source
        error), whose exception then propagates.
        """
        consumed = 0
        while True:
            want = chunk_size(consumed)
            if want <= 0:
                return next(records, None) is None, consumed
            chunk: List[SourceRecord] = []
            try:
                chunk.extend(islice(records, want))
            finally:
                # Records read before a source error are still admitted.
                if chunk:
                    try:
                        self.admit_chunk(chunk, sink)
                    finally:
                        if self.settled:
                            consumed += self.settled
                            settle(chunk[self.settled - 1], self.settled)
            if len(chunk) < want:
                return True, consumed

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


def fold_block(predictor, block: AcceptedBlock, sides: Optional[np.ndarray] = None) -> None:
    """Apply a block of accepted records to ``predictor``, in order.

    The block is split only where the op changes between add and
    delete; each run goes through the predictor's
    ``update_block``/``delete_block`` in one call (:func:`fold_run`),
    which equals the per-record ``update``/``delete`` loop bit for bit.
    ``sides`` (per record, a mask of :data:`~repro.core.block.U_SIDE`
    and :data:`~repro.core.block.V_SIDE`) applies only the arrivals a
    shard worker owns; ``None`` applies both.
    """
    deletes = block.deletes
    cuts = (np.flatnonzero(deletes[1:] != deletes[:-1]) + 1).tolist()
    for start, stop in zip([0] + cuts, cuts + [len(deletes)]):
        fold_run(
            predictor,
            bool(deletes[start]),
            block.us[start:stop],
            block.vs[start:stop],
            block.timestamps[start:stop],
            None if sides is None else sides[start:stop],
        )


def fold_run(predictor, delete: bool, us, vs, timestamps, sides=None) -> None:
    """Apply one run of same-op records: a single whole record through
    the scalar ``update``/``delete`` (block setup costs more than it
    saves on one edge), anything else through
    ``update_block``/``delete_block`` (``sides`` as for
    :func:`fold_block`)."""
    chosen = () if sides is None else (sides,)
    if not isinstance(predictor, DynamicMinHashPredictor):
        # Append-only predictors never see a delete: admission
        # dead-letters them before they reach a sink.
        if len(us) == 1 and not chosen:
            predictor.update(int(us[0]), int(vs[0]))
        else:
            predictor.update_block(us, vs, *chosen)
    elif len(us) == 1 and not chosen:
        (predictor.delete if delete else predictor.update)(
            int(us[0]), int(vs[0]), float(timestamps[0])
        )
    else:
        (predictor.delete_block if delete else predictor.update_block)(
            us, vs, timestamps, *chosen
        )
