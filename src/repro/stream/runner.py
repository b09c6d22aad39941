"""The fault-tolerant ingestion runner.

:class:`StreamRunner` is the long-lived consumer loop the paper's
deployment story assumes: it drives predictor updates from an
:class:`~repro.stream.sources.EdgeSource`, checkpoints atomically every
*N* records, resumes *exactly* from ``(checkpoint, offset)`` after a
crash, and routes contract-violating records to a dead-letter sink
instead of aborting.

The crash-recovery contract (pinned by the integration suite):

    For any fault schedule — transient I/O errors, corrupt lines,
    duplicates, a kill at any point — a runner resumed from its latest
    intact checkpoint produces a predictor whose sketch arrays are
    **bit-identical** to an uninterrupted single-pass run over the same
    stream.

The mechanism is an exactly-once offset discipline: the committed
offset counts every record *consumed* from the source (dead-lettered
and dropped records included, so quarantining never desynchronises
resume), a checkpoint snapshots ``(state, offset)`` atomically, and
sources replay deterministically from any offset.  There is no
"maybe-processed" window: a record is reflected in a checkpoint iff its
offset is below the checkpoint's.

Records pass through one :class:`~repro.stream.admission.Admission`
stage — the same record contract, casebook policies and dead-letter
channel as the sharded :class:`~repro.parallel.ShardedRunner` — in
chunks that never cross a checkpoint boundary, the ``max_records`` stop
or a ``--metrics-every`` sample, and the accepted records of each
chunk fold into the local predictor at once
(:func:`~repro.stream.admission.fold_block`: one ``update_block`` call
per run of adds or deletes), so state reflects every committed offset
the moment a chunk settles.
A checkpoint holds the guard's state beside the sketches, so a resumed
run judges duplicates, hubs and timestamps against everything before
its offset, exactly like an uninterrupted one.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Union

from repro.core.config import SketchConfig
from repro.core.dynamic import DynamicMinHashPredictor
from repro.core.predictor import MinHashLinkPredictor
from repro.errors import ConfigurationError
from repro.obs.export import PeriodicReporter
from repro.obs.registry import MetricsRegistry
from repro.stream.admission import (
    CHUNK_RECORDS,
    AcceptedBlock,
    Admission,
    close_records,
    fold_block,
)
from repro.stream.checkpoint import CheckpointManager
from repro.stream.deadletter import DeadLetterSink
from repro.stream.policies import PolicySet, StreamGuard
from repro.stream.sources import EdgeSource, SourceRecord

__all__ = ["StreamRunner"]


class StreamRunner:
    """Drive a predictor from a source with checkpoints and quarantine.

    Most applications reach this through the facade —
    :func:`repro.api.ingest` constructs and runs one (or the sharded
    :class:`~repro.parallel.ShardedRunner` when ``workers > 1``);
    direct construction stays supported for callers that need the
    reporter/clock knobs.

    Parameters
    ----------
    source:
        Any :class:`EdgeSource` (wrap flaky ones in
        :class:`~repro.stream.sources.RetryingSource` — the runner
        reports its retry count in :meth:`stats`).
    predictor:
        An existing predictor to continue filling; default is a fresh
        :class:`MinHashLinkPredictor` built from ``config``.
    checkpoint_manager / checkpoint_every:
        Snapshot cadence in *consumed records*; ``0`` disables periodic
        checkpoints (a final one is still written when the source is
        exhausted, if a manager is configured).
    dead_letters / policy / self_loops / policies / guard:
        The admission contract, shared with the sharded runner — see
        :class:`~repro.stream.admission.Admission`.  Without
        ``policies`` or ``guard`` the legacy parse-level contract holds
        exactly; a ``policies`` set (or its CLI string spelling)
        activates the full casebook contract.
    metrics:
        The :class:`~repro.obs.registry.MetricsRegistry` holding this
        runner's instruments (the ``ingest_*`` family); default a fresh
        enabled registry.  :meth:`stats` *reads* these instruments, so
        an explicitly disabled registry also blanks the legacy counters
        — pass one only when bookkeeping itself must cost nothing.
    reporter:
        Optional :class:`~repro.obs.export.PeriodicReporter` ticked
        once per admitted chunk, at the same record counts as one tick
        per record would sample (the ``--metrics-out``/
        ``--metrics-every`` flight recorder).  The runner never closes
        it — the owner decides when the final sample lands.
    clock:
        Injectable monotonic clock for checkpoint-age reporting.
    """

    def __init__(
        self,
        source: EdgeSource,
        *,
        predictor: Optional[MinHashLinkPredictor] = None,
        config: Optional[SketchConfig] = None,
        checkpoint_manager: Optional[CheckpointManager] = None,
        checkpoint_every: int = 0,
        dead_letters: Optional[DeadLetterSink] = None,
        policy: str = "quarantine",
        self_loops: str = "quarantine",
        policies: Union[PolicySet, str, None] = None,
        guard: Optional[StreamGuard] = None,
        metrics: Optional[MetricsRegistry] = None,
        reporter: Optional[PeriodicReporter] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if checkpoint_every < 0:
            raise ConfigurationError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
        if checkpoint_every and checkpoint_manager is None:
            raise ConfigurationError("checkpoint_every needs a checkpoint_manager")
        self.source = source
        if predictor is not None:
            self.predictor = predictor
        elif config is not None and config.dynamic_mode:
            self.predictor = DynamicMinHashPredictor(config)
        else:
            self.predictor = MinHashLinkPredictor(config)
        #: Whether the predictor consumes deletes (and timestamps).
        self.dynamic = isinstance(self.predictor, DynamicMinHashPredictor)
        self.checkpoints = checkpoint_manager
        self.checkpoint_every = checkpoint_every
        self.clock = clock
        self.reporter = reporter
        #: Committed offset: every record below it is reflected in state.
        self.offset = 0
        self.resumed_from: Optional[int] = None  # generation, if resumed
        self.source_exhausted = False
        self._last_checkpoint_offset: Optional[int] = None
        self._last_checkpoint_time: Optional[float] = None
        self._since_checkpoint = 0
        #: The instrument namespace behind stats() and the exporters.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        records = self.metrics.counter(
            "ingest_records_total",
            "Records consumed from the source, by outcome",
            labelnames=("outcome",),
        )
        self._m_ok = records.labels(outcome="ok")
        self.admission = Admission(
            source,
            self.metrics,
            records,
            dynamic=self.dynamic,
            dead_letters=dead_letters,
            policy=policy,
            self_loops=self_loops,
            policies=policies,
            guard=guard,
        )
        self.guard = self.admission.guard
        self.dead_letters = self.admission.dead_letters
        self._m_checkpoints = self.metrics.counter(
            "ingest_checkpoints_written_total", "Checkpoint generations written"
        )
        self._m_checkpoint_seconds = self.metrics.histogram(
            "ingest_checkpoint_write_seconds", "Wall seconds per checkpoint save"
        )
        # Read-time gauges: zero hot-path cost, always-current values.
        self.metrics.gauge(
            "ingest_offset", "Committed resume offset"
        ).set_function(lambda: self.offset)
        self.metrics.gauge(
            "ingest_checkpoint_age_seconds",
            "Seconds since the last checkpoint (-1 before the first)",
        ).set_function(
            lambda: -1.0
            if self._last_checkpoint_time is None
            else self.clock() - self._last_checkpoint_time
        )
        self.metrics.gauge(
            "ingest_vertices", "Vertices sketched by the predictor"
        ).set_function(lambda: self.predictor.vertex_count)

    @property
    def records_in(self) -> int:
        """Records consumed, every outcome included."""
        return self.admission.records_in

    @property
    def records_ok(self) -> int:
        return self.admission.records_ok

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------

    def resume(self) -> bool:
        """Restore ``(predictor, offset)`` from the newest intact
        checkpoint generation; returns whether one was found.

        Must be called before :meth:`run` consumes anything — resuming
        over a partially-advanced runner would double-count.
        """
        if self.checkpoints is None:
            raise ConfigurationError("resume() needs a checkpoint_manager")
        if self.records_in:
            raise ConfigurationError("resume() after records were consumed would double-count")
        checkpoint = self.checkpoints.load_latest(guard=self.guard.active)
        if checkpoint is None:
            return False
        if checkpoint.guard is not None:
            self.guard.restore(checkpoint.guard)
        self.predictor = checkpoint.state
        self.offset = checkpoint.offset
        self.resumed_from = checkpoint.generation
        self._last_checkpoint_offset = checkpoint.offset
        self._last_checkpoint_time = self.clock()
        return True

    # ------------------------------------------------------------------
    # The consumer loop
    # ------------------------------------------------------------------

    def run(self, max_records: Optional[int] = None) -> Dict[str, object]:
        """Consume from the committed offset; returns :meth:`stats`.

        ``max_records`` bounds the records consumed by *this call*
        (useful for drills and cooperative scheduling); ``None`` runs to
        source exhaustion.  A final checkpoint is written on exhaustion
        so a completed stream never replays; a ``max_records`` stop
        writes none — exactly what a crash looks like, which the
        kill-and-resume tests exploit.
        """
        started = self.clock()
        records = iter(self.source.records(self.offset))
        try:
            exhausted, consumed = self.admission.consume(
                records,
                lambda consumed: self._next_chunk(max_records, consumed),
                self._accept,
                self._settle,
            )
            if exhausted:
                self.source_exhausted = True
                if self.checkpoints is not None and self._since_checkpoint:
                    self.checkpoint()
        finally:
            close_records(records)
        self.admission.ran(consumed, self.clock() - started)
        return self.stats()

    def _next_chunk(self, max_records: Optional[int], consumed: int) -> int:
        """Checkpoint if one is due, then size the next chunk: up to the
        next checkpoint, the ``max_records`` stop and the reporter's
        next sample."""
        if self.checkpoint_every and self._since_checkpoint >= self.checkpoint_every:
            self.checkpoint()
        want = CHUNK_RECORDS
        if self.checkpoint_every:
            want = min(want, self.checkpoint_every - self._since_checkpoint)
        if max_records is not None:
            want = min(want, max_records - consumed)
        if self.reporter is not None:
            want = min(want, self.reporter.records_until_due() or want)
        return want

    def _settle(self, last: SourceRecord, count: int) -> None:
        """Commit the offset of every record judged.  A strict rejection
        raises uncommitted: the offset stops at the rejected record.
        Dead-lettered and dropped records still commit theirs:
        quarantining must never desynchronise resume."""
        self.offset = last.offset + 1
        self._since_checkpoint += count
        if self.reporter is not None:
            self.reporter.tick(count)

    def _accept(self, block: AcceptedBlock) -> None:
        fold_block(self.predictor, block)
        self._m_ok.inc(len(block.offsets))

    # ------------------------------------------------------------------
    # Checkpoints and health
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Snapshot ``(predictor, guard state, committed offset)``
        atomically now."""
        if self.checkpoints is None:
            raise ConfigurationError("no checkpoint_manager configured")
        started = self.clock()
        self.checkpoints.save(
            self.predictor,
            self.offset,
            guard=self.guard.state_arrays() if self.guard.active else None,
        )
        finished = self.clock()
        self._m_checkpoint_seconds.observe(finished - started)
        self._m_checkpoints.inc()
        self._last_checkpoint_offset = self.offset
        self._last_checkpoint_time = finished
        self._since_checkpoint = 0

    def dead_letter_reasons(self) -> Dict[str, int]:
        """Per-reason quarantine counts (see :class:`Admission`)."""
        return self.admission.dead_letter_reasons()

    def stats(self) -> Dict[str, object]:
        """Runner health as a flat dict (the monitoring surface).

        Every counter is a *read* of the shared
        :class:`~repro.obs.registry.MetricsRegistry` — the Prometheus /
        JSON exposition of :attr:`metrics` and this dict can never
        drift.  Counters cover this runner's lifetime; ``offset`` is
        the resume position a crash right now would restart from (after
        replaying back to the last checkpoint).  The dict and its
        nested ``dead_letter_reasons`` are defensive snapshots: mutate
        them freely.
        """
        age: Optional[float] = None
        if self._last_checkpoint_time is not None:
            age = self.clock() - self._last_checkpoint_time
        return {
            "source": self.source.name,
            "policy": self.admission.policy,
            "offset": self.offset,
            **self.admission.stats(),
            "checkpoints_written": int(self._m_checkpoints.value),
            "last_checkpoint_offset": self._last_checkpoint_offset,
            "last_checkpoint_age_seconds": age,
            "resumed_from_generation": self.resumed_from,
            "source_exhausted": self.source_exhausted,
            "vertices": self.predictor.vertex_count,
            "dynamic": self.dynamic,
        }
