"""Fault-tolerant ingestion runtime.

The paper's deployment story — an unattended consumer sketching an
unbounded edge stream in constant space — only works in production if
the consumer survives crashes, flaky sources and malformed records
without replaying the stream or corrupting state.  This package is that
runtime:

* :mod:`~repro.stream.sources` — resumable, offset-addressable record
  suppliers (:class:`FileEdgeSource`, :class:`IteratorEdgeSource`,
  :class:`SyntheticEdgeSource`) and transient-failure retry
  (:class:`RetryPolicy`, :class:`RetryingSource`),
* :mod:`~repro.stream.checkpoint` — :class:`CheckpointManager`:
  atomic, checksummed, rotated checkpoint generations embedding the
  committed stream offset,
* :mod:`~repro.stream.deadletter` — the quarantine channel with
  per-reason counters (:class:`MemoryDeadLetters`,
  :class:`FileDeadLetters`),
* :mod:`~repro.stream.policies` — the per-case policy layer
  (:class:`PolicySet`, :class:`StreamGuard`): every casebook case
  handled as ``strict`` / ``quarantine`` / ``normalize``,
* :mod:`~repro.stream.casebook` — the adversarial input casebook
  itself (:data:`CASEBOOK`, :class:`SyntheticCorpusGenerator`,
  :func:`replay_dead_letters`, :func:`check_casebook`),
* :mod:`~repro.stream.admission` — :class:`~repro.stream.admission.
  Admission`, the record contract every ingest path shares
  (``source → Admission → sink``), and its ``SpanFolder`` sink,
* :mod:`~repro.stream.runner` — :class:`StreamRunner`, the consumer
  loop tying it together with exact crash recovery, and
* :mod:`~repro.stream.faults` — :class:`FaultInjector`, the seeded
  chaos harness the crash-recovery suite is built on.

See ``docs/OPERATIONS.md`` for the operator's view (cadence, resume
semantics, dead-letter triage, retry tuning) and ``docs/CASEBOOK.md``
for the case-by-case contract.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.stream.casebook": [
            "CASEBOOK", "Case", "CasebookReport", "ReplayReport",
            "SyntheticCorpusGenerator", "check_casebook", "replay_dead_letters",
        ],
        "repro.stream.checkpoint": ["Checkpoint", "CheckpointManager"],
        "repro.stream.deadletter": [
            "REASONS", "DeadLetter", "DeadLetterSink", "FileDeadLetters",
            "MemoryDeadLetters", "read_dead_letters",
        ],
        "repro.stream.faults": ["FaultInjector", "FlakySource"],
        "repro.stream.policies": [
            "DEFAULT_POLICIES", "MODES", "GuardVerdict", "PolicySet", "StreamGuard",
        ],
        "repro.stream.runner": ["StreamRunner"],
        "repro.stream.sources": [
            "EdgeSource", "FileEdgeSource", "IteratorEdgeSource", "RetryingSource",
            "RetryPolicy", "SourceRecord", "SyntheticEdgeSource",
        ],
    },
)

__all__ = [
    "CASEBOOK",
    "Case",
    "CasebookReport",
    "Checkpoint",
    "CheckpointManager",
    "DEFAULT_POLICIES",
    "DeadLetter",
    "DeadLetterSink",
    "EdgeSource",
    "FaultInjector",
    "FileDeadLetters",
    "FileEdgeSource",
    "FlakySource",
    "GuardVerdict",
    "IteratorEdgeSource",
    "MODES",
    "MemoryDeadLetters",
    "PolicySet",
    "REASONS",
    "ReplayReport",
    "RetryPolicy",
    "RetryingSource",
    "SourceRecord",
    "StreamGuard",
    "StreamRunner",
    "SyntheticCorpusGenerator",
    "SyntheticEdgeSource",
    "check_casebook",
    "read_dead_letters",
    "replay_dead_letters",
]
