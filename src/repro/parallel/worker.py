"""The shard worker: one process, one predictor shard, one checkpoint dir.

Each worker owns a *full-configuration*
:class:`~repro.core.predictor.MinHashLinkPredictor` (same ``k``, same
seed, same hash bank as every sibling — mergeability requires equal
configs) and consumes only the edges the coordinator routes to its
shard.  The protocol over the bounded task queue:

* ``("edges", block)`` — an :class:`~repro.stream.admission.AcceptedBlock`
  of validated records owned by this shard, as columns (global stream
  offsets ascending, endpoints, delete flags, timestamps; the
  coordinator guard admits deletes only under a dynamic configuration),
* ``("finish",)`` — the source is exhausted: write a final checkpoint
  (so a completed stream never replays) and report the shard state,
* ``("halt",)`` — stop *without* a final checkpoint.  This is what a
  coordinator-side ``max_records`` drill sends: the on-disk state then
  looks exactly like a crash, which the recovery suite exploits.

Results flow back on a shared queue: ``("ready", shard, offset,
generation)`` after startup/resume, ``("done", shard, payload)`` on
completion, ``("error", shard, traceback)`` on an unhandled exception.

Checkpointing reuses :class:`~repro.stream.checkpoint.CheckpointManager`
unchanged, one manager per shard in its own subdirectory
(``<root>/shard-03/checkpoint-<gen>.npz``).  A shard checkpoint embeds
the *global* stream offset of its last applied edge + 1; because the
coordinator routes each shard's records in ascending offset order,
"every record of mine below this offset is reflected" holds per shard,
and resume is exact shard-by-shard even when workers die at different
points.
"""

from __future__ import annotations

import traceback
from pathlib import Path
from typing import Optional

import numpy as np

from repro.core.config import SketchConfig
from repro.core.dynamic import DynamicMinHashPredictor
from repro.errors import WorkerCrashError
from repro.core.predictor import MinHashLinkPredictor
from repro.stream.admission import SpanFolder
from repro.stream.checkpoint import CheckpointManager

__all__ = ["shard_worker_main", "shard_directory"]


def shard_directory(root, shard: int) -> Path:
    """The checkpoint subdirectory owned by one shard."""
    return Path(root) / f"shard-{shard:02d}"


def shard_worker_main(
    shard: int,
    task_queue,
    result_queue,
    config: SketchConfig,
    checkpoint_dir: Optional[str],
    checkpoint_every: int,
    keep: int,
    resume: bool,
    batch_size: int = 0,
) -> None:
    """Entry point of one shard worker process (top-level: spawn-safe).

    ``batch_size`` is the span size of the shard's
    :class:`~repro.stream.admission.SpanFolder` (the serial runner's
    sink), flushed at every checkpoint boundary so checkpoints land at
    the scalar offsets and crash recovery stays bit-identical.
    """
    try:
        manager = None
        if checkpoint_dir:
            manager = CheckpointManager(
                shard_directory(checkpoint_dir, shard), keep=keep
            )
        dynamic = config.dynamic_mode
        predictor = (
            DynamicMinHashPredictor(config) if dynamic else MinHashLinkPredictor(config)
        )
        offset = 0  # global stream offset this shard is committed through
        generation = None
        if resume and manager is not None:
            checkpoint = manager.load_latest()
            if checkpoint is not None:
                predictor = checkpoint.state
                offset = checkpoint.offset
                generation = checkpoint.generation
        result_queue.put(("ready", shard, offset, generation))

        fold = SpanFolder(predictor, batch_size)
        records_ok = 0
        checkpoints_written = 0
        since_checkpoint = 0
        while True:
            message = task_queue.get()
            kind = message[0]
            if kind == "edges":
                block = message[1]
                # Replayed records already in a checkpoint are skipped.
                start = int(np.searchsorted(block.offsets, offset))
                while start < len(block.offsets):
                    stop = len(block.offsets)
                    if checkpoint_every:
                        stop = min(stop, start + checkpoint_every - since_checkpoint)
                    fold.add_block(block.part(start, stop))
                    offset = int(block.offsets[stop - 1]) + 1
                    records_ok += stop - start
                    since_checkpoint += stop - start
                    start = stop
                    if checkpoint_every and since_checkpoint >= checkpoint_every:
                        fold.flush()
                        manager.save(predictor, offset)
                        checkpoints_written += 1
                        since_checkpoint = 0
            elif kind in ("finish", "halt"):
                fold.flush()  # the reported predictor reflects every record
                halted = kind == "halt"
                if not halted and manager is not None and since_checkpoint:
                    manager.save(predictor, offset)
                    checkpoints_written += 1
                break
            else:  # pragma: no cover - protocol misuse is a coordinator bug
                raise WorkerCrashError(
                    f"unknown worker message {message!r}", shard=shard
                )

        result_queue.put(
            (
                "done",
                shard,
                {
                    "predictor": predictor,
                    "offset": offset,
                    "records_ok": records_ok,
                    "checkpoints_written": checkpoints_written,
                    "resumed_from_generation": generation,
                    "halted": halted,
                },
            )
        )
    except Exception:  # noqa: BLE001 - forwarded verbatim to the coordinator
        result_queue.put(("error", shard, traceback.format_exc()))
