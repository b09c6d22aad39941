"""Edge sources: resumable, retryable record suppliers for the runner.

The ingestion runtime separates *where records come from* (this module)
from *what to do with them* (:mod:`repro.stream.runner`).  A source is
anything implementing :class:`EdgeSource`:

* it yields :class:`SourceRecord`\\ s — ``(offset, value, line_number)``
  where ``offset`` is a dense 0-based record index and ``value`` is the
  raw record (a text line, a tuple, or an :class:`~repro.graph.stream.Edge`),
* it can start from any offset (``records(start_offset=...)``), which is
  what makes crash recovery *exact*: a checkpoint stores the committed
  offset and the source replays from there, and
* re-iterating yields the identical record at every offset (sources are
  deterministic), so a resumed run is bit-identical to an uninterrupted
  one.

Sources deliberately do **not** parse or validate — malformed lines are
the runner's job to dead-letter, so a source never aborts on data it
merely transports.

Transient I/O failures are handled by :class:`RetryingSource`, which
wraps any source with a :class:`RetryPolicy` (exponential backoff with
decorrelated jitter and an attempt cap).  Because every source is
offset-addressable, a retry re-opens the underlying source *at the
first undelivered offset* — no record is skipped or duplicated across a
retry, which the fault-injection suite pins down.
"""

from __future__ import annotations

import os
import random
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Union

from repro.errors import ConfigurationError, RetryExhaustedError

__all__ = [
    "SourceRecord",
    "EdgeSource",
    "FileEdgeSource",
    "IteratorEdgeSource",
    "SyntheticEdgeSource",
    "RetryPolicy",
    "RetryingSource",
]

PathLike = Union[str, Path]


class SourceRecord(NamedTuple):
    """One raw record from a source, before parsing or validation.

    ``offset`` is the dense record index (comments and blank lines are
    never counted); ``line_number`` is the 1-based physical line for
    file sources (``None`` otherwise) so dead-letter entries point at
    the exact line an operator should inspect.
    """

    offset: int
    value: object
    line_number: Optional[int] = None


class EdgeSource:
    """Protocol base: a deterministic, offset-addressable record supplier."""

    name: str = "source"

    def records(self, start_offset: int = 0) -> Iterator[SourceRecord]:
        """Yield records with ``offset >= start_offset``, in order."""
        raise NotImplementedError


class FileEdgeSource(EdgeSource):
    """Stream raw data lines from a SNAP-format edge-list file.

    Yields the stripped text of every data line (value is a ``str``);
    ``#``/``%`` comments and blank lines are skipped without consuming
    an offset.  Parsing is left to the consumer so malformed lines can
    be dead-lettered with their line number instead of aborting the
    file.

    Reading in legs costs O(1) per leg: a stopped leg parks its open
    handle, and a ``records()`` call starting at the next offset, or at
    the last record yielded (delivered again), reads on from it — also
    past lines appended since, like ``tail -f``.  Any other offset, a
    half-written last line, a replaced or truncated file and any
    ``OSError`` read the file again from line 1.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self.name = str(path)
        # At most one (handle, next offset, line number, last record) of a
        # stopped leg; the finalizer closes it even inside a reference cycle.
        self._parked: List[tuple] = []
        weakref.finalize(self, _close_parked, self._parked)

    def records(self, start_offset: int = 0) -> Iterator[SourceRecord]:
        cursor = self._parked.pop() if self._parked else None
        if cursor is not None and not self._resumable(cursor, start_offset):
            cursor[0].close()
            cursor = None
        if cursor is None:
            # Universal newlines, but a bare "\r" stays visible (see below); an
            # undecodable byte reaches the guard as a lone surrogate.
            handle = open(self.path, encoding="utf-8", errors="surrogateescape", newline="")
            cursor = (handle, 0, 0, None)
        handle, offset, line_number, last = cursor
        complete = True  # a line without "\n" may still grow: never park on one
        try:
            if last is not None and last.offset == start_offset:
                yield last
            for line in handle:
                line_number += 1
                complete = line.endswith("\n")
                text = line.strip()
                if not text or text.startswith(("#", "%")):
                    continue
                offset += 1
                if offset > start_offset:
                    last = SourceRecord(offset - 1, text, line_number)
                    yield last
        except GeneratorExit:
            self._park((handle, offset, line_number, last), complete)
            raise
        except BaseException:
            handle.close()
            raise
        self._park((handle, offset, line_number, last), complete)

    def _resumable(self, cursor: tuple, start_offset: int) -> bool:
        handle, offset, _, last = cursor
        if start_offset != offset and (last is None or start_offset != last.offset):
            return False
        try:
            on_disk, held = os.stat(self.path), os.fstat(handle.fileno())
        except OSError:
            return False
        same_file = (on_disk.st_dev, on_disk.st_ino) == (held.st_dev, held.st_ino)
        return same_file and on_disk.st_size >= handle.buffer.raw.tell()

    def _park(self, cursor: tuple, complete: bool) -> None:
        self.close()
        if complete:
            self._parked.append(cursor)
        else:
            cursor[0].close()

    def close(self) -> None:
        """Close a parked handle; the next ``records()`` reads from line 1."""
        _close_parked(self._parked)

    def __repr__(self) -> str:
        return f"FileEdgeSource({str(self.path)!r})"


def _close_parked(parked: List[tuple]) -> None:
    while parked:
        parked.pop()[0].close()


class IteratorEdgeSource(EdgeSource):
    """Serve records from an in-memory sequence (or a replay factory).

    Accepts either a :class:`Sequence` (replayed by slicing — resuming
    from offset *n* is O(1)) or a zero-argument callable returning a
    fresh iterable each time (resuming skips *n* records).  A bare
    one-shot iterator is rejected: it cannot be replayed, so it cannot
    participate in crash recovery or retries.
    """

    def __init__(self, records: Union[Sequence[object], Callable[[], Iterable[object]]], name: str = "iterator") -> None:
        if not callable(records) and not isinstance(records, Sequence):
            raise ConfigurationError(
                "IteratorEdgeSource needs a Sequence or a factory callable; "
                f"a one-shot {type(records).__name__} cannot be replayed for "
                "resume/retry"
            )
        self._records = records
        self.name = name

    def records(self, start_offset: int = 0) -> Iterator[SourceRecord]:
        if callable(self._records):
            iterator: Iterable[object] = self._records()
            for offset, value in enumerate(iterator):
                if offset >= start_offset:
                    yield SourceRecord(offset, value)
        else:
            for offset in range(start_offset, len(self._records)):
                yield SourceRecord(offset, self._records[offset])

    def __repr__(self) -> str:
        return f"IteratorEdgeSource(name={self.name!r})"


class SyntheticEdgeSource(IteratorEdgeSource):
    """A named registry dataset served as a source (for drills/demos).

    The dataset is materialised once (registry datasets are synthetic
    and seed-deterministic anyway) so offsets are stable across resume.
    """

    def __init__(self, dataset: str, seed: int = 0) -> None:
        from repro.graph import datasets  # deferred: heavy import

        super().__init__(datasets.load(dataset, seed=seed), name=f"dataset:{dataset}")


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter and an attempt cap.

    ``delay(attempt)`` for attempt ``i`` (0-based) is
    ``min(max_delay, base_delay * multiplier**i)`` scaled by a uniform
    jitter factor in ``[1 - jitter, 1 + jitter]``.  Jitter decorrelates
    a fleet of consumers hammering a recovering NFS mount; the cap
    bounds how long a permanently-dead source can stall a runner before
    :class:`~repro.errors.RetryExhaustedError` surfaces.

    ``sleep`` is injectable so tests assert the schedule without
    actually sleeping.
    """

    max_attempts: int = 5
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.25
    seed: int = 0
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigurationError("delays must be non-negative")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError(f"jitter must be in [0, 1), got {self.jitter}")

    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """The backoff before retry number ``attempt`` (0-based)."""
        base = min(self.max_delay, self.base_delay * self.multiplier**attempt)
        if self.jitter and rng is not None:
            base *= 1.0 + rng.uniform(-self.jitter, self.jitter)
        return base

    def schedule(self) -> list:
        """The full jitterless backoff schedule (for docs and tests)."""
        return [self.delay(i) for i in range(self.max_attempts - 1)]


class RetryingSource(EdgeSource):
    """Wrap a source so transient ``IOError``\\ s trigger offset-exact retry.

    On an ``IOError`` (or ``OSError``) raised while iterating the
    underlying source, the wrapper backs off per the policy and re-opens
    the source at the first undelivered offset, so consumers downstream
    see a gapless, duplicate-free record sequence.  After
    ``max_attempts`` consecutive failures *without a single delivered
    record in between*, :class:`~repro.errors.RetryExhaustedError` is
    raised.  A successful delivery resets the attempt counter — a source
    that fails once an hour retries forever, a source that fails five
    times in a row is declared dead.
    """

    def __init__(self, source: EdgeSource, policy: Optional[RetryPolicy] = None) -> None:
        self.source = source
        self.policy = policy or RetryPolicy()
        self.name = source.name
        self.retries = 0  # total backoff cycles performed (for stats())

    def records(self, start_offset: int = 0) -> Iterator[SourceRecord]:
        rng = random.Random(self.policy.seed)
        next_offset = start_offset
        consecutive_failures = 0
        while True:
            try:
                for record in self.source.records(next_offset):
                    yield record
                    next_offset = record.offset + 1
                    consecutive_failures = 0
                return
            except (IOError, OSError) as error:
                consecutive_failures += 1
                if consecutive_failures >= self.policy.max_attempts:
                    raise RetryExhaustedError(
                        f"source {self.name!r} failed {consecutive_failures} "
                        f"consecutive attempts at offset {next_offset}: {error}",
                        attempts=consecutive_failures,
                        last_error=error,
                    ) from error
                self.retries += 1
                self.policy.sleep(self.policy.delay(consecutive_failures - 1, rng))

    def __repr__(self) -> str:
        return f"RetryingSource({self.source!r}, attempts={self.policy.max_attempts})"
