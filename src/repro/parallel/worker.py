"""The shard worker: one process, the vertices it owns, one checkpoint dir.

Each worker holds a predictor of the shared configuration (same ``k``,
same seed, same hash bank as every sibling) with sketch rows for the
vertices it owns (:func:`~repro.parallel.partition.owner_of`) and no
others: the coordinator sends it the arrivals whose target it owns, so
its store, degree table and checkpoints cover ~1/W of the vertices.
The protocol over the bounded task queue:

* ``("edges", block, sides)`` — an
  :class:`~repro.stream.admission.AcceptedBlock` of validated records
  with an arrival of this shard's (global stream offsets ascending,
  endpoints, delete flags, timestamps; the coordinator guard admits
  deletes only under a dynamic configuration), and a ``uint8`` column
  saying which arrivals of each record it owns
  (:data:`~repro.core.block.U_SIDE` for ``sketch(u) <- v``,
  :data:`~repro.core.block.V_SIDE` for ``sketch(v) <- u``),
* ``("finish",)`` — the source is exhausted: write a final checkpoint
  (so a completed stream never replays) and report the shard state,
* ``("halt",)`` — stop *without* a final checkpoint.  This is what a
  coordinator-side ``max_records`` drill sends: the on-disk state then
  looks exactly like a crash, which the recovery suite exploits.

A shard counts a record as its own when it owns the record's ``u``:
that count is its ``records_ok`` (so the shards' counts sum to the
run's), and it sets the checkpoint cadence, a checkpoint after every
``checkpoint_every`` counted records.

Results flow back on a shared queue: ``("ready", shard, offset,
generation)`` after startup/resume, ``("done", shard, payload)`` on
completion (counters and offsets only), ``("refused", shard, message)``
on a :class:`~repro.errors.ConfigurationError` (such as a resume that
finds checkpoints of another partition), ``("error", shard,
traceback)`` on any other unhandled exception.

The shard's state never crosses the queue.  Before ``done``, the
worker writes it to a one-way pipe of its own (:func:`send_state`; the
coordinator reads it back through :func:`receive_state`), as raw
column bytes with no pickling: an append shard sends its
per-vertex ``vertex_ids``, ``update_counts`` and ``degrees`` columns,
then its ``values`` (and ``witnesses``) rows in chunks of
:data:`ROW_CHUNK` rows, each a view of the store sent without a copy;
a dynamic shard sends its :class:`~repro.core.dynamic.DynamicArrays`
columns whole, the high-water time last.  The send is synchronous, so
the coordinator reads while the worker writes and neither side holds
a second copy of the state.

Checkpointing reuses :class:`~repro.stream.checkpoint.CheckpointManager`
unchanged, one manager per shard in its own subdirectory
(``<root>/shard-03/checkpoint-<gen>.npz``).  A shard checkpoint embeds
the *global* stream offset of its last applied record + 1; because the
coordinator routes each shard's arrivals in ascending offset order,
"every arrival of mine below this offset is reflected" holds per shard,
and resume is exact shard-by-shard even when workers die at different
points.  Every shard checkpoint is also stamped with the worker count
and :data:`~repro.parallel.partition.PARTITION_SCHEME`; a resume whose
partition differs from the stamp (or that finds no stamp) is refused
with :class:`~repro.errors.ConfigurationError`, since its arrivals
would reach shards that never checkpointed them.
"""

from __future__ import annotations

import traceback
from pathlib import Path
from typing import Optional

import numpy as np

from repro.core.block import U_SIDE
from repro.core.config import SketchConfig
from repro.core.dynamic import DynamicArrays, DynamicMinHashPredictor
from repro.errors import ConfigurationError, WorkerCrashError
from repro.core.predictor import ROW_CHUNK, MinHashLinkPredictor
from repro.parallel.partition import PARTITION_SCHEME
from repro.stream.admission import fold_block
from repro.stream.checkpoint import Checkpoint, CheckpointManager

__all__ = [
    "shard_worker_main",
    "shard_directory",
    "send_state",
    "receive_state",
    "chunk_buffers",
]

#: Element types of a dynamic shard's messages: the
#: :class:`~repro.core.dynamic.DynamicArrays` columns, then the
#: high-water time as a one-element array.
_DYNAMIC_DTYPES = (np.int64, np.int64, np.int64, np.int64, np.float64, np.int64, np.float64)


def shard_directory(root, shard: int) -> Path:
    """The checkpoint subdirectory owned by one shard."""
    return Path(root) / f"shard-{shard:02d}"


def send_state(connection, predictor) -> None:
    """Write a shard predictor's whole state to ``connection`` as raw
    column bytes (the framing the module docstring describes)."""
    if isinstance(predictor, DynamicMinHashPredictor):
        arrays = predictor.export_dynamic_arrays()
        for column in arrays[:-1]:
            connection.send_bytes(column)
        connection.send_bytes(np.array([arrays.high_water], dtype=np.float64))
        return
    stored = predictor._stored_arrays()
    for column in (stored.vertex_ids, stored.update_counts, stored.degrees):
        connection.send_bytes(column)
    for start in range(0, len(stored.vertex_ids), ROW_CHUNK):
        connection.send_bytes(stored.values[start : start + ROW_CHUNK])
        if stored.witnesses is not None:
            connection.send_bytes(stored.witnesses[start : start + ROW_CHUNK])


def chunk_buffers(config: SketchConfig) -> tuple:
    """Flat receive buffers for one chunk of rows: ``values``, and
    ``witnesses`` or ``None``."""
    size = ROW_CHUNK * config.k
    witnesses = np.empty(size, dtype=np.int64) if config.track_witnesses else None
    return np.empty(size, dtype=np.uint64), witnesses


def receive_state(receive, config: SketchConfig, buffers: Optional[tuple] = None):
    """Read back what :func:`send_state` wrote; ``receive(into=None)``
    returns the next message's bytes, or fills ``into`` with it.

    A dynamic shard comes back whole, as a predictor.  An append shard
    comes back as a part :func:`~repro.core.predictor.merge_shards`
    folds: its per-vertex columns are read now, its rows chunk by chunk
    into ``buffers`` (:func:`chunk_buffers`) as the fold asks for them.
    """
    if config.dynamic_mode:
        *columns, high_water = (np.frombuffer(receive(), dtype) for dtype in _DYNAMIC_DTYPES)
        return DynamicMinHashPredictor.from_dynamic_arrays(
            config, DynamicArrays(*columns, float(high_water[0]))
        )
    return _PipedShard(receive, config, buffers)


class _PipedShard:
    """An append shard's state on its way off the pipe (see
    :func:`receive_state`).  The buffers may be shared by every shard:
    the fold copies each chunk out before it asks for the next."""

    def __init__(self, receive, config: SketchConfig, buffers: tuple) -> None:
        self.config = config
        self._receive = receive
        self._buffers = buffers
        self.vertex_ids, self.update_counts, self.degrees = (
            np.frombuffer(receive(), dtype=np.int64) for _ in range(3)
        )

    def row_chunks(self):
        k = self.config.k
        values, witnesses = self._buffers
        total = len(self.vertex_ids)
        for start in range(0, total, ROW_CHUNK):
            size = min(ROW_CHUNK, total - start) * k
            chunk_values = self._receive(values[:size]).reshape(-1, k)
            chunk_witnesses = (
                None if witnesses is None else self._receive(witnesses[:size]).reshape(-1, k)
            )
            yield chunk_values, chunk_witnesses


def _check_partition(checkpoint: Checkpoint, stamp: dict) -> None:
    """Refuse to resume from ``checkpoint`` unless its metadata carries
    this run's partition ``stamp``, raising
    :class:`~repro.errors.ConfigurationError`."""
    metadata = checkpoint.metadata or {}
    found = {key: metadata.get(key) for key in stamp}
    if found == stamp:
        return
    if found["partition"] is None:
        written = "by an edge-partitioned run, with no partition stamp"
    else:
        written = f"by {found['workers']} workers under partition scheme {found['partition']}"
    raise ConfigurationError(
        f"partition mismatch: checkpoint {checkpoint.path} was written {written}, "
        f"but this run has {stamp['workers']} workers under partition scheme "
        f"{stamp['partition']}; resume with the writer's worker count, or ingest "
        "into a fresh checkpoint directory"
    )


def shard_worker_main(
    shard: int,
    task_queue,
    result_queue,
    state_pipe,
    config: SketchConfig,
    checkpoint_dir: Optional[str],
    checkpoint_every: int,
    keep: int,
    resume: bool,
    workers: int,
) -> None:
    """Entry point of one shard worker process (top-level: spawn-safe).

    Each routed block folds its owned arrivals into the shard's
    predictor at once (:func:`~repro.stream.admission.fold_block`, the
    serial runner's sink), cut only at the shard's checkpoint
    boundaries, so checkpoints land at the per-record offsets and crash
    recovery stays bit-identical.
    ``state_pipe`` is the send end of the shard's one-way state pipe;
    ``workers`` is the run's shard count, which the checkpoints' stamp
    records.
    """
    try:
        # Every checkpoint's partition: a resume under another is refused.
        stamp = {"workers": workers, "partition": PARTITION_SCHEME}
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
                _check_partition(checkpoint, stamp)
                predictor = checkpoint.state
                offset = checkpoint.offset
                generation = checkpoint.generation
        result_queue.put(("ready", shard, offset, generation))

        saved = offset  # the offset the newest checkpoint holds
        records_ok = 0
        checkpoints_written = 0
        since_checkpoint = 0
        while True:
            message = task_queue.get()
            kind = message[0]
            if kind == "edges":
                block, sides = message[1], message[2]
                # Positions of the records this shard counts (it owns u).
                counted = np.flatnonzero(sides & U_SIDE)
                start = folded = 0
                while start < len(sides):
                    stop = len(sides)
                    due = checkpoint_every - since_checkpoint
                    if checkpoint_every and folded + due <= len(counted):
                        stop = int(counted[folded + due - 1]) + 1
                    fold_block(predictor, block.part(start, stop), sides[start:stop])
                    offset = int(block.offsets[stop - 1]) + 1
                    count = int(np.searchsorted(counted, stop)) - folded
                    folded += count
                    records_ok += count
                    since_checkpoint += count
                    start = stop
                    if checkpoint_every and since_checkpoint >= checkpoint_every:
                        manager.save(predictor, offset, stamp=stamp)
                        checkpoints_written += 1
                        since_checkpoint = 0
                        saved = offset
            elif kind in ("finish", "halt"):
                if kind == "finish" and manager is not None and offset > saved:
                    manager.save(predictor, offset, stamp=stamp)
                    checkpoints_written += 1
                break
            else:  # pragma: no cover - protocol misuse is a coordinator bug
                raise WorkerCrashError(
                    f"unknown worker message {message!r}", shard=shard
                )

        send_state(state_pipe, predictor)
        result_queue.put(
            (
                "done",
                shard,
                {
                    "offset": offset,
                    "records_ok": records_ok,
                    "checkpoints_written": checkpoints_written,
                },
            )
        )
    except ConfigurationError as error:
        result_queue.put(("refused", shard, str(error)))
    except Exception:  # noqa: BLE001 - forwarded verbatim to the coordinator
        result_queue.put(("error", shard, traceback.format_exc()))
    finally:
        state_pipe.close()
