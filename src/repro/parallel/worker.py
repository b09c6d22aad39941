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
completion (counters and offsets only), ``("error", shard, traceback)``
on an unhandled exception.

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
from repro.core.dynamic import DynamicArrays, DynamicMinHashPredictor
from repro.errors import WorkerCrashError
from repro.core.predictor import MinHashLinkPredictor
from repro.stream.admission import SpanFolder
from repro.stream.checkpoint import CheckpointManager

__all__ = [
    "shard_worker_main",
    "shard_directory",
    "send_state",
    "receive_state",
    "chunk_buffers",
]

#: Rows per ``values``/``witnesses`` message of an append shard's state.
ROW_CHUNK = 1024
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
    batch_size: int = 0,
) -> None:
    """Entry point of one shard worker process (top-level: spawn-safe).

    ``batch_size`` is the span size of the shard's
    :class:`~repro.stream.admission.SpanFolder` (the serial runner's
    sink), flushed at every checkpoint boundary so checkpoints land at
    the scalar offsets and crash recovery stays bit-identical.
    ``state_pipe`` is the send end of the shard's one-way state pipe.
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
                fold.flush()  # the sent state reflects every record
                if kind == "finish" and manager is not None and since_checkpoint:
                    manager.save(predictor, offset)
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
    except Exception:  # noqa: BLE001 - forwarded verbatim to the coordinator
        result_queue.put(("error", shard, traceback.format_exc()))
    finally:
        state_pipe.close()
