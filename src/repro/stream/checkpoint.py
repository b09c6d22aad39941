"""Rotated, checksummed, atomically-written checkpoint generations.

:class:`CheckpointManager` owns a directory of checkpoint files named
``<basename>-<generation>.npz`` with strictly increasing generation
numbers.  Each file is a hardened :mod:`repro.core.persistence` archive
(stored, not deflated; atomic temp-file + ``os.replace`` write,
embedded sha256, embedded stream offset), so the failure story
composes:

* **crash mid-write** — the temp file is torn, the previous generation
  is untouched; the stray temp is swept on the next save,
* **bit rot / truncation of a finished file** — the checksum rejects it
  with :class:`~repro.errors.CheckpointCorruptError` and
  :meth:`load_latest` falls back to the next older generation,
* **all generations corrupt** — :meth:`load_latest` raises, because
  resuming from garbage is the one unacceptable outcome.

:meth:`load_latest` hands the newest verified generation to a builder:
the live predictor for ingest resume by default, or a pack of the
verified arrays for serving — one fallback loop for both.

Rotation keeps the newest ``keep`` generations.  ``keep`` trades disk
for recovery depth: with cadence *N* and ``keep=3`` a consumer can lose
its two newest checkpoints and still replay at most *3N* records.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Mapping, Optional, Union

import numpy as np

from repro.core.persistence import VerifiedCheckpoint, read_checkpoint, save_predictor
from repro.core.predictor import MinHashLinkPredictor
from repro.errors import CheckpointCorruptError, ConfigurationError
from repro.obs.registry import MetricsRegistry

__all__ = ["CheckpointManager", "Checkpoint"]

PathLike = Union[str, Path]


class Checkpoint(NamedTuple):
    """A successfully loaded checkpoint: state (what
    :meth:`CheckpointManager.load_latest`'s builder made, the predictor
    by default) + resume position, the ingest guard's arrays when they
    were asked for and saved, and every integer metadata field the
    writer stored (``stream_offset``, ``generation`` and its stamps)."""

    state: Any
    offset: int
    generation: int
    path: Path
    guard: Optional[Dict[str, np.ndarray]] = None
    metadata: Optional[Dict[str, int]] = None


class CheckpointManager:
    """Manage rotated checkpoint generations in one directory.

    Parameters
    ----------
    directory:
        Created if absent.  One manager per logical consumer; two
        consumers sharing a directory would interleave generations.
    keep:
        Newest generations retained after each save (>= 1).
    basename:
        File-name stem, useful when drills and production share a
        scratch directory.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; saves
        and loads record into the ``persist_*`` instruments (bytes
        written, save/load latency) and corrupt generations skipped by
        :meth:`load_latest` count into
        ``checkpoint_corrupt_generations_total``.
    """

    def __init__(
        self,
        directory: PathLike,
        *,
        keep: int = 3,
        basename: str = "checkpoint",
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if keep < 1:
            raise ConfigurationError(f"keep must be >= 1, got {keep}")
        if not re.fullmatch(r"[A-Za-z0-9_.-]+", basename):
            raise ConfigurationError(f"basename must be a plain file stem, got {basename!r}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        self.basename = basename
        self.metrics = metrics
        self._m_corrupt = (
            metrics.counter(
                "checkpoint_corrupt_generations_total",
                "Corrupt checkpoint generations skipped during resume",
            )
            if metrics is not None
            else None
        )
        self._pattern = re.compile(rf"{re.escape(basename)}-(\d+)\.npz$")

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def save(
        self,
        predictor: MinHashLinkPredictor,
        offset: int,
        guard: Optional[Mapping[str, np.ndarray]] = None,
        stamp: Optional[Mapping[str, int]] = None,
    ) -> Path:
        """Write the next generation atomically; returns its path.

        Embeds ``offset`` (records consumed from the source, including
        dead-lettered ones) so resume knows exactly where to continue,
        the ingest guard's arrays when given (one archive, so one
        ``os.replace`` publishes both), and ``stamp``'s integer fields
        in the checkpoint metadata (a shard worker's partition).
        Old generations beyond ``keep`` and stray temp files from
        crashed writers are removed *after* the new file is durable.
        """
        generation = self.latest_generation() + 1
        path = self._path_for(generation)
        save_predictor(
            predictor,
            path,
            metadata={**(stamp or {}), "stream_offset": offset, "generation": generation},
            metrics=self.metrics,
            guard=guard,
        )
        self._sweep()
        return path

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def generations(self) -> List[int]:
        """Existing generation numbers, newest first."""
        found = []
        for entry in self.directory.iterdir():
            match = self._pattern.fullmatch(entry.name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found, reverse=True)

    def latest_generation(self) -> int:
        """The newest generation number, or 0 if none exist."""
        generations = self.generations()
        return generations[0] if generations else 0

    def load_latest(
        self,
        build: Callable[[VerifiedCheckpoint], Any] = VerifiedCheckpoint.to_predictor,
        *,
        guard: bool = False,
    ) -> Optional[Checkpoint]:
        """Load the newest *intact* checkpoint, or ``None`` if none exist.

        Corrupt generations are skipped (newest-first) — this is the
        "resume from generation N-1" path after a torn write or bit
        rot.  If every generation is corrupt, the newest generation's
        :class:`~repro.errors.CheckpointCorruptError` is re-raised:
        silently starting from scratch would replay the whole stream
        into doubled degree counts.  ``build`` makes
        :attr:`Checkpoint.state` from the verified generation; ``guard``
        also reads (and verifies) the guard arrays a resume restores.
        """
        first_error: Optional[CheckpointCorruptError] = None
        for generation in self.generations():
            path = self._path_for(generation)
            try:
                verified = read_checkpoint(path, metrics=self.metrics, guard=guard)
            except CheckpointCorruptError as error:
                if self._m_corrupt is not None:
                    self._m_corrupt.inc()
                if first_error is None:
                    first_error = error
                continue
            return Checkpoint(
                build(verified),
                verified.metadata.get("stream_offset", 0),
                generation,
                path,
                verified.guard,
                verified.metadata,
            )
        if first_error is not None:
            raise first_error
        return None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _path_for(self, generation: int) -> Path:
        return self.directory / f"{self.basename}-{generation}.npz"

    def _sweep(self) -> None:
        for generation in self.generations()[self.keep:]:
            self._path_for(generation).unlink(missing_ok=True)
        for stray in self.directory.glob(f".{self.basename}-*.npz.tmp-*"):
            stray.unlink(missing_ok=True)

    def __repr__(self) -> str:
        return (
            f"CheckpointManager({str(self.directory)!r}, keep={self.keep}, "
            f"latest={self.latest_generation()})"
        )
