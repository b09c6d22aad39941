"""Dead-letter channel: quarantine for records that violate the contract.

An unattended consumer must not abort on one malformed line, and must
not silently drop it either — both lose information.  The dead-letter
channel is the third option: the record is *routed aside* with a
machine-readable reason, per-reason counters accumulate for monitoring,
and the stream keeps flowing.

Reasons are a closed vocabulary (see :data:`REASONS`) so dashboards can
alert on specific classes: a burst of ``bad_arity`` means an upstream
format change; a trickle of ``self_loop`` is normal SNAP data.

Two sinks are provided: :class:`MemoryDeadLetters` (bounded ring for
tests and interactive use) and :class:`FileDeadLetters` (append-only
JSON-lines file an operator can triage and replay — each entry carries
the source offset, line number, reason and the verbatim raw record).
"""

from __future__ import annotations

import json
from collections import Counter, deque
from pathlib import Path
from typing import Dict, List, Mapping, NamedTuple, Optional, Union

__all__ = [
    "DeadLetter",
    "DeadLetterSink",
    "MemoryDeadLetters",
    "FileDeadLetters",
    "REASONS",
    "ordered_by_reason",
    "read_dead_letters",
]

#: The closed vocabulary of dead-letter reasons the runner emits.
#: Parse-level reasons come from :func:`repro.graph.io.parse_stream_record`
#: and the tuple-record contract; stream-level reasons from the
#: :class:`~repro.stream.policies.StreamGuard` casebook (only emitted
#: when a :class:`~repro.stream.policies.PolicySet` is active).  Each
#: case is documented with its default policy in ``docs/CASEBOOK.md``.
REASONS = (
    # -- parse level ---------------------------------------------------
    "bad_arity",              # not 2 or 3 fields / wrong tuple length
    "non_integer_vertex",     # vertex token is not a canonical integer
    "negative_vertex",        # vertex id < 0
    "bad_timestamp",          # third field is not numeric
    "self_loop",              # u == v and self-loops are quarantined
    "bad_record_type",        # record is neither text, tuple, nor Edge
    "mixed_delimiter",        # fields joined by , ; | instead of whitespace
    "bad_encoding",           # control/format chars or non-ASCII digits
    "nonfinite_timestamp",    # timestamp parses to nan / inf / -inf
    "bad_op",                 # leading operation token is not add/delete
    # -- stream level (casebook policies) ------------------------------
    "duplicate_edge",         # edge already accepted earlier in the stream
    "out_of_order_timestamp", # timestamp regresses behind the high-water mark
    "far_future_timestamp",   # timestamp beyond the configured horizon
    "hub_anomaly",            # vertex degree exploded past the hub limit
    "delete_unseen_edge",     # delete of an edge the stream never added
    "unsupported_delete",     # delete reaching an append-only (non-dynamic) sink
)

PathLike = Union[str, Path]


def ordered_by_reason(counts: Mapping[str, int]) -> Dict[str, int]:
    """The non-zero per-reason ``counts`` in vocabulary order; unknown
    reasons (future extensions) trail in insertion order.  A fresh dict
    — a caller mutating it cannot corrupt the counts behind it."""
    ordered = {reason: counts[reason] for reason in REASONS if counts.get(reason)}
    for reason, count in counts.items():
        if count and reason not in ordered:
            ordered[reason] = count
    return ordered


class DeadLetter(NamedTuple):
    """One quarantined record with enough context to triage it."""

    offset: int
    reason: str
    raw: str
    line_number: Optional[int] = None
    detail: str = ""


class DeadLetterSink:
    """Base sink: counts per-reason; subclasses decide where entries go."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def record(self, letter: DeadLetter) -> None:
        self.counts[letter.reason] += 1
        self._store(letter)

    def _store(self, letter: DeadLetter) -> None:
        raise NotImplementedError

    def summary(self) -> Dict[str, int]:
        """Per-reason counts, stably ordered by the reason vocabulary."""
        return ordered_by_reason(self.counts)


class MemoryDeadLetters(DeadLetterSink):
    """Keep the most recent ``capacity`` letters in memory.

    The counters are exact regardless of capacity; only the retained
    entries are bounded, so a pathological input cannot balloon memory.
    """

    def __init__(self, capacity: int = 1000) -> None:
        super().__init__()
        self._entries: deque = deque(maxlen=capacity)

    def _store(self, letter: DeadLetter) -> None:
        self._entries.append(letter)

    @property
    def entries(self) -> List[DeadLetter]:
        return list(self._entries)


class FileDeadLetters(DeadLetterSink):
    """Append letters to a JSON-lines file for offline triage.

    Entries are flushed per record (a crash loses at most the OS buffer)
    and the file is append-only, so re-running a consumer over the same
    stream accumulates rather than truncates — offsets disambiguate.
    """

    def __init__(self, path: PathLike) -> None:
        super().__init__()
        self.path = Path(path)
        self._handle = open(self.path, "a", encoding="utf-8")

    def _store(self, letter: DeadLetter) -> None:
        json.dump(letter._asdict(), self._handle, separators=(",", ":"))
        self._handle.write("\n")
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "FileDeadLetters":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_dead_letters(path: PathLike) -> List[DeadLetter]:
    """Parse a :class:`FileDeadLetters` JSON-lines file back into
    :class:`DeadLetter` entries, in file (= quarantine) order.

    The triage half of the replay loop: an operator (or
    :func:`repro.stream.casebook.replay_dead_letters`) reads the
    quarantine file, inspects reasons and raws, and re-ingests under a
    corrected policy.  JSON round-trips every raw exactly — newlines
    and control characters in a hostile record are escaped on write, so
    one letter is always one file line.
    """
    letters: List[DeadLetter] = []
    with open(Path(path), "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            payload = json.loads(line)
            letters.append(
                DeadLetter(
                    offset=payload["offset"],
                    reason=payload["reason"],
                    raw=payload["raw"],
                    line_number=payload.get("line_number"),
                    detail=payload.get("detail", ""),
                )
            )
    return letters
