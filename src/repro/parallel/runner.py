"""The sharded parallel ingestion coordinator.

:class:`ShardedRunner` is the scale-out counterpart of the serial
:class:`~repro.stream.runner.StreamRunner`: it splits one edge stream's
arrivals across ``workers`` processes by the vertex they land in (each
vertex has one owner — see :mod:`repro.parallel.partition`), drives
them through bounded ``multiprocessing`` queues with backpressure, and
reduces the vertex-disjoint shard states into a single predictor that
is **bit-identical** to serial ingestion of the same stream.

Division of labour:

* the **coordinator** (this class, in the calling process) reads the
  source, admits records in chunks through the *same*
  :class:`~repro.stream.admission.Admission` stage as the serial runner
  (dead-lettering centrally, so quarantine counters live in one
  registry), sends each accepted record to the owners of its two
  endpoints (:func:`~repro.parallel.partition.owner_of_array`) — once,
  with both arrivals, when one worker owns both — and routes columnar
  chunks into per-shard bounded queues;
* each **worker** (:func:`~repro.parallel.worker.shard_worker_main`)
  holds the sketch rows and degrees of the vertices it owns plus its
  own :class:`~repro.stream.checkpoint.CheckpointManager`
  subdirectory, and checkpoints every ``checkpoint_every`` of *its*
  records (those whose ``u`` it owns) with the global offset it is
  committed through.

Every vertex's arrivals reach one process in stream order, so its slot
values, witnesses, update counts and degrees equal the serial run's by
construction, and each worker holds ~1/W of the vertices.

The reduce is streamed: at the end of the stream each worker writes its
state to a one-way pipe as raw columns
(:func:`~repro.parallel.worker.send_state`).  The coordinator reads
every shard's per-vertex columns, sizes one store for the union of
their vertices, then reads shard 0's rows, shard 1's, ..., one chunk
at a time into a reused buffer, folding each chunk in
(:func:`~repro.core.predictor.merge_shards`; the shards are disjoint,
so the fold is a union).  No predictor is pickled, and the coordinator
never holds more than the merged store plus one chunk.

The crash-recovery contract: kill any worker at any point (the
coordinator raises :class:`~repro.errors.WorkerCrashError`), construct
a new runner with the same ``workers`` over the same checkpoint
directory, ``resume()`` and ``run()`` — each shard replays only its own
uncommitted suffix, and the merged result is still bit-identical to an
uninterrupted serial pass.  A resume with another worker count, or over
a directory written before vertex ownership, is refused with
:class:`~repro.errors.ConfigurationError` (the shard checkpoints carry
a partition stamp).  ``run(max_records=N)`` stops all workers *without*
final checkpoints (the on-disk state of a crash), which the drill suite
uses.

Observability: the registry carries
``ingest_records_total{outcome=...,shard=...}`` (each accepted record
counted once, at the shard owning its ``u``), the shared dead-letter
reason counters, a ``shard_merge_seconds`` histogram for the reduce
step, and worker checkpoint totals folded in after the run.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
from functools import partial
from itertools import islice
from typing import Callable, Dict, Iterator, List, Optional, Union

import numpy as np

from repro.core.block import U_SIDE, V_SIDE
from repro.core.config import SketchConfig
from repro.core.dynamic import merge_dynamic_shards
from repro.core.predictor import MinHashLinkPredictor, merge_shards
from repro.errors import ConfigurationError, WorkerCrashError
from repro.obs.registry import MetricsRegistry
from repro.parallel.partition import owner_of_array
from repro.parallel.worker import (
    chunk_buffers,
    receive_state,
    shard_directory,
    shard_worker_main,
)
from repro.stream.admission import AcceptedBlock, Admission, close_records
from repro.stream.deadletter import DeadLetterSink, MemoryDeadLetters
from repro.stream.policies import PolicySet, StreamGuard
from repro.stream.sources import EdgeSource, SourceRecord

__all__ = ["ShardedRunner"]

#: How long one queue operation waits before re-checking worker health.
_POLL_SECONDS = 0.1


class ShardedRunner:
    """Partition a stream across worker processes; reduce to one predictor.

    Parameters
    ----------
    source:
        Any :class:`~repro.stream.sources.EdgeSource`.  The coordinator
        is the only reader — workers never touch the source, so flaky
        sources keep their retry semantics by wrapping in
        :class:`~repro.stream.sources.RetryingSource` exactly as for
        the serial runner.
    workers:
        Shard count (>= 1).  Each worker is one OS process owning the
        sketch rows of ~1/``workers`` of the vertices.  A resume must
        use the count the checkpoints were written with.
    config:
        The shared :class:`SketchConfig`.  Must be mergeable
        (``degree_mode="exact"``) — validated eagerly at construction,
        before any process is spawned or stream record consumed.
    checkpoint_dir / checkpoint_every / keep:
        Per-shard resumable checkpoints: shard *i* writes rotated
        generations under ``<checkpoint_dir>/shard-0i/`` every
        ``checkpoint_every`` of its own records (those whose ``u`` it
        owns), each stamped with the partition.
    dead_letters / policy / self_loops / policies / guard:
        The admission contract, enforced coordinator-side by the same
        :class:`~repro.stream.admission.Admission` stage as the serial
        runner.
    metrics:
        A :class:`MetricsRegistry` for the ``ingest_*`` instruments.
        Use a dedicated registry per runner: the sharded
        ``ingest_records_total`` carries a ``shard`` label the serial
        runner's does not.
    chunk_records / queue_depth:
        Routing granularity: edges travel in chunks of
        ``chunk_records`` through queues bounded at ``queue_depth``
        chunks, which is the backpressure window — a stalled worker
        blocks the coordinator after ``queue_depth`` undelivered
        chunks instead of buffering the stream unboundedly.  The
        coordinator admits ``chunk_records * workers`` source records
        at a time.
    mp_context:
        ``multiprocessing`` start-method name (``"fork"``/``"spawn"``);
        default is the platform default.  Workers are spawn-safe.
    """

    def __init__(
        self,
        source: EdgeSource,
        *,
        workers: int,
        config: Optional[SketchConfig] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 0,
        keep: int = 3,
        dead_letters: Optional[DeadLetterSink] = None,
        policy: str = "quarantine",
        self_loops: str = "quarantine",
        policies: Union[PolicySet, str, None] = None,
        guard: Optional[StreamGuard] = None,
        metrics: Optional[MetricsRegistry] = None,
        chunk_records: int = 2048,
        queue_depth: int = 8,
        mp_context: Optional[str] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if checkpoint_every < 0:
            raise ConfigurationError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
        if checkpoint_every and not checkpoint_dir:
            raise ConfigurationError("checkpoint_every needs a checkpoint_dir")
        if chunk_records < 1:
            raise ConfigurationError(f"chunk_records must be positive, got {chunk_records}")
        if queue_depth < 1:
            raise ConfigurationError(f"queue_depth must be positive, got {queue_depth}")
        self.source = source
        self.workers = workers
        self.config = config or SketchConfig()
        self.config.require_mergeable()
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.keep = keep
        self.chunk_records = chunk_records
        self.queue_depth = queue_depth
        self.mp_context = mp_context
        self.clock = clock
        #: Merged predictor; populated by :meth:`run`.
        self.predictor: Optional[MinHashLinkPredictor] = None
        #: Global offset of the last record consumed from the source + 1.
        self.offset = 0
        self.source_exhausted = False
        self._resume_requested = False
        self._ran = False
        self.shard_offsets: List[int] = [0] * workers
        #: Global offset each shard worker started from (its newest
        #: intact checkpoint's on a resume), by shard, as run() hears
        #: from the workers.
        self.start_offsets: Dict[int, int] = {}
        self.shard_records: List[int] = [0] * workers
        self.resumed_generations: List[Optional[int]] = [None] * workers
        self.merge_seconds = 0.0
        #: Live worker process handles during run() (the kill drills
        #: reach in here to murder one mid-flight).
        self.processes: List[multiprocessing.Process] = []
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        records = self.metrics.counter(
            "ingest_records_total",
            "Records consumed from the source, by outcome and owning shard",
            labelnames=("outcome", "shard"),
        )
        self._m_ok = [
            records.labels(outcome="ok", shard=str(shard)) for shard in range(workers)
        ]
        self._m_replayed = records.labels(outcome="replayed", shard="-")
        # Guard state lives coordinator-side: one process sees every
        # record in stream order, so stream-level detection is
        # deterministic and identical to the serial runner's.  It is
        # not checkpointed: a resume rebuilds it by replaying the
        # records below the lowest shard offset (_restore_guard).
        self.admission = Admission(
            source,
            self.metrics,
            records,
            dynamic=self.config.dynamic_mode,
            reject_labels={"shard": "-"},
            dead_letters=dead_letters,
            policy=policy,
            self_loops=self_loops,
            policies=policies,
            guard=guard,
        )
        self.guard = self.admission.guard
        self.dead_letters = self.admission.dead_letters
        self._m_checkpoints = self.metrics.counter(
            "ingest_checkpoints_written_total",
            "Checkpoint generations written across all shards",
        )
        self._m_merge_seconds = self.metrics.histogram(
            "shard_merge_seconds", "Wall seconds reducing shard predictors via merge()"
        )
        self.metrics.gauge(
            "ingest_workers", "Shard worker processes of this runner"
        ).set_function(lambda: self.workers)
        self.metrics.gauge(
            "ingest_offset", "Global offset of the last consumed record + 1"
        ).set_function(lambda: self.offset)
        self.metrics.gauge(
            "ingest_vertices", "Vertices sketched by the merged predictor"
        ).set_function(lambda: self.predictor.vertex_count if self.predictor else 0)

    @property
    def records_ok(self) -> int:
        return self.admission.records_ok

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------

    def resume(self) -> bool:
        """Arm per-shard resume; returns whether any shard checkpoint exists.

        The actual state restore happens inside each worker (it owns
        its shard directory); this call only verifies the directory and
        flags the next :meth:`run` to start workers in resume mode.
        Must be called before anything has been consumed.  The run
        raises :class:`~repro.errors.ConfigurationError` if a shard's
        checkpoint was written under another partition.
        """
        if self.checkpoint_dir is None:
            raise ConfigurationError("resume() needs a checkpoint_dir")
        if self._ran:  # only run() consumes records
            raise ConfigurationError("resume() after records were consumed would double-count")
        self._resume_requested = True
        return any(
            next(iter(shard_directory(self.checkpoint_dir, shard).glob("checkpoint-*.npz")), None)
            is not None
            for shard in range(self.workers)
        )

    # ------------------------------------------------------------------
    # The coordinator loop
    # ------------------------------------------------------------------

    def run(self, max_records: Optional[int] = None) -> Dict[str, object]:
        """Spawn workers, route the stream, reduce; returns :meth:`stats`.

        ``max_records`` bounds the records consumed by this call and
        makes every worker stop *without* a final checkpoint — the
        kill-and-resume drills' crash double.  ``None`` runs to source
        exhaustion, after which each shard writes a final checkpoint
        (if configured) and the merged predictor is exposed as
        :attr:`predictor`.
        """
        if self._ran:
            raise ConfigurationError(
                "ShardedRunner.run() is single-shot; construct a new runner "
                "(workers have exited and shard queues are closed)"
            )
        self._ran = True
        started = self.clock()
        context = multiprocessing.get_context(self.mp_context)  # None: the default
        self._task_queues = [
            context.Queue(maxsize=self.queue_depth) for _ in range(self.workers)
        ]
        self._result_queue = context.Queue()
        self._done: Dict[int, dict] = {}
        self.processes = []
        self._state_pipes = []
        for shard in range(self.workers):
            # Made just before its worker starts, so a forked sibling
            # never inherits this pipe's send end.
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(
                target=shard_worker_main,
                args=(
                    shard,
                    self._task_queues[shard],
                    self._result_queue,
                    sender,
                    self.config,
                    self.checkpoint_dir,
                    self.checkpoint_every,
                    self.keep,
                    self._resume_requested,
                    self.workers,
                ),
                daemon=True,
                name=f"repro-shard-{shard}",
            )
            process.start()
            sender.close()  # the worker's exit now reads as EOF here
            self.processes.append(process)
            self._state_pipes.append(receiver)
        consumed = 0
        try:
            self._collect(self.start_offsets)
            start_offset = min(self.shard_offsets)
            self.offset = start_offset
            self._buffers: List[list] = [[] for _ in range(self.workers)]
            size = self.chunk_records * self.workers  # ~one message per shard
            replay = start_offset if self._resume_requested and self.guard.active else 0
            records = iter(self.source.records(start_offset - replay))
            try:
                if replay:
                    self._restore_guard(islice(records, replay), size)
                exhausted, consumed = self.admission.consume(
                    records,
                    lambda consumed: size if max_records is None else min(
                        size, max_records - consumed
                    ),
                    self._route,
                    self._settle,
                )
            finally:
                close_records(records)
            for shard in range(self.workers):
                self._send(shard, 1)
            sentinel = ("finish",) if exhausted else ("halt",)
            for shard in range(self.workers):
                self._put(shard, sentinel)
            self.source_exhausted = exhausted
            self._reduce()  # before join: a worker blocks until its state is read
            self._collect(self._done)
        except BaseException:
            self._abort()
            raise
        finally:
            for process in self.processes:
                process.join(timeout=5.0)
            for pipe in self._state_pipes:
                pipe.close()
        self.admission.ran(consumed, self.clock() - started)
        return self.stats()

    def _restore_guard(self, records: Iterator[SourceRecord], size: int) -> None:
        """Bring the guard to its state after ``records`` (the stream
        below the lowest shard offset) by judging them again through a
        throwaway admission: no sink, no counters, no dead letters."""
        quiet = MetricsRegistry(enabled=False)
        Admission(
            self.source,
            quiet,
            quiet.counter("ingest_records_total", labelnames=("outcome",)),
            dynamic=self.config.dynamic_mode,
            dead_letters=MemoryDeadLetters(capacity=0),
            self_loops=self.guard.self_loops,
            guard=self.guard,
        ).consume(records, lambda consumed: size, lambda block: None, lambda last, count: None)

    def _settle(self, last: SourceRecord, count: int) -> None:
        self.offset = last.offset + 1

    def _route(self, block: AcceptedBlock) -> None:
        # Each record is two arrivals, sketch(u) <- v and sketch(v) <- u,
        # each owned by its target's shard: one owner sees a vertex's
        # adds and deletes in stream order.  An arrival already in its
        # shard's checkpoint is not sent again (a resume replays from
        # min(shard offsets) and skips per shard, never double-counting).
        starts = np.asarray(self.shard_offsets)
        owners_u = owner_of_array(block.us, self.workers, self.config.seed)
        owners_v = owner_of_array(block.vs, self.workers, self.config.seed)
        fresh_u = block.offsets >= starts[owners_u]
        fresh_v = block.offsets >= starts[owners_v]
        # A record counts once, at the shard that owns its u.
        self._m_replayed.inc(int(len(fresh_u) - np.count_nonzero(fresh_u)))
        for shard in range(self.workers):
            mine_u = fresh_u & (owners_u == shard)
            sides = (mine_u * U_SIDE | (fresh_v & (owners_v == shard)) * V_SIDE).astype(np.uint8)
            mine = np.flatnonzero(sides)
            if len(mine):
                self._buffers[shard].append(
                    (AcceptedBlock(*(column[mine] for column in block)), sides[mine])
                )
                self._m_ok[shard].inc(int(np.count_nonzero(mine_u)))
                self._send(shard, self.chunk_records)

    def _send(self, shard: int, least: int) -> None:
        """Send a shard's buffered records in chunks of ``chunk_records``
        while at least ``least`` are buffered."""
        buffered = self._buffers[shard]
        pending = sum(len(sides) for _, sides in buffered)
        if pending < least:
            return
        block = AcceptedBlock.concatenate([part for part, _ in buffered])
        sides = np.concatenate([sides for _, sides in buffered])
        start = 0
        while pending - start >= max(least, 1):
            stop = min(pending, start + self.chunk_records)
            self._put(shard, ("edges", block.part(start, stop), sides[start:stop]))
            start = stop
        self._buffers[shard] = (
            [(block.part(start, pending), sides[start:pending])] if start < pending else []
        )

    # ------------------------------------------------------------------
    # Worker liveness and message plumbing
    # ------------------------------------------------------------------

    def _put(self, shard: int, item) -> None:
        """Enqueue with backpressure, failing fast if the worker died."""
        task_queue = self._task_queues[shard]
        while True:
            try:
                task_queue.put(item, timeout=_POLL_SECONDS)
                return
            except queue_module.Full:
                self._check_alive()

    def _drain_results(self) -> None:
        while True:
            try:
                message = self._result_queue.get_nowait()
            except queue_module.Empty:
                return
            self._dispatch(message)

    def _dispatch(self, message) -> None:
        kind, shard = message[0], message[1]
        if kind == "ready":
            self.start_offsets[shard] = self.shard_offsets[shard] = message[2]
            self.resumed_generations[shard] = message[3]
        elif kind == "done":
            payload = self._done[shard] = message[2]
            self.shard_offsets[shard] = payload["offset"]
            self.shard_records[shard] = payload["records_ok"]
            self._m_checkpoints.inc(payload["checkpoints_written"])
        elif kind == "refused":
            raise ConfigurationError(f"shard {shard}: {message[2]}")
        elif kind == "error":
            raise WorkerCrashError(
                f"shard {shard} worker raised:\n{message[2]}",
                shard=shard,
                traceback=message[2],
            )

    def _check_alive(self) -> None:
        self._drain_results()
        for shard, process in enumerate(self.processes):
            if shard not in self._done and not process.is_alive():
                self._drain_results()  # a 'done'/'error' may have raced exit
                if shard in self._done:
                    continue
                raise WorkerCrashError(
                    f"shard {shard} worker (pid {process.pid}) died with "
                    f"exit code {process.exitcode} before finishing; resume "
                    "from the per-shard checkpoints to recover",
                    shard=shard,
                    exitcode=process.exitcode,
                )

    def _collect(self, replies: Dict[int, object]) -> None:
        """Dispatch results until every worker has filled ``replies``."""
        while len(replies) < self.workers:
            try:
                self._dispatch(self._result_queue.get(timeout=_POLL_SECONDS))
            except queue_module.Empty:
                self._check_alive()

    def _receive(self, shard: int, into: Optional[np.ndarray] = None):
        """The next message on a shard's state pipe: its bytes, or
        ``into`` filled with it.  A worker that dies, or closes its pipe
        mid-send, raises :class:`WorkerCrashError` (with its traceback,
        if it forwarded one)."""
        pipe = self._state_pipes[shard]
        while not pipe.poll(_POLL_SECONDS):
            self._check_alive()
        try:
            if into is None:
                return pipe.recv_bytes()
            if pipe.recv_bytes_into(into) == into.nbytes:
                return into
        except EOFError:
            pass
        process = self.processes[shard]
        process.join(_POLL_SECONDS)  # an exiting worker: let its exit code settle
        self._drain_results()
        raise WorkerCrashError(
            f"shard {shard} worker (pid {process.pid}) broke off sending its state "
            f"(exit code {process.exitcode}); resume from the per-shard checkpoints "
            "to recover",
            shard=shard,
            exitcode=process.exitcode,
        )

    def _abort(self) -> None:
        for process in self.processes:
            if process.is_alive():
                process.terminate()
        for task_queue in getattr(self, "_task_queues", []):
            task_queue.cancel_join_thread()
        self._result_queue.cancel_join_thread()

    # ------------------------------------------------------------------
    # Reduce and health
    # ------------------------------------------------------------------

    def _reduce(self) -> None:
        """Read every shard's state off its pipe into :attr:`predictor`.

        Append shards fold chunk by chunk as they arrive (the merge time
        includes reading their rows); dynamic shards arrive whole as
        :class:`~repro.core.dynamic.DynamicArrays` and are rebuilt, then
        reduced.
        """
        dynamic = self.config.dynamic_mode
        buffers = None if dynamic else chunk_buffers(self.config)
        shards = [
            receive_state(partial(self._receive, shard), self.config, buffers)
            for shard in range(self.workers)
        ]
        reduce_shards = merge_dynamic_shards if dynamic else merge_shards
        merge_started = self.clock()
        self.predictor = reduce_shards(shards)
        self.merge_seconds = self.clock() - merge_started
        self._m_merge_seconds.observe(self.merge_seconds)

    def dead_letter_reasons(self) -> Dict[str, int]:
        """Per-reason quarantine counts (see :class:`Admission`)."""
        return self.admission.dead_letter_reasons()

    def stats(self) -> Dict[str, object]:
        """Runner health as a flat dict, mirroring
        :meth:`StreamRunner.stats <repro.stream.runner.StreamRunner.stats>`
        with the sharding extras (per-shard offsets/records, merge
        latency).  A defensive snapshot — mutate freely."""
        return {
            "source": self.source.name,
            "policy": self.admission.policy,
            "workers": self.workers,
            "offset": self.offset,
            **self.admission.stats(),
            "replayed": int(self._m_replayed.value),
            "checkpoints_written": int(self._m_checkpoints.value),
            "shard_offsets": list(self.shard_offsets),
            "shard_records": list(self.shard_records),
            "resumed_generations": list(self.resumed_generations),
            "merge_seconds": self.merge_seconds,
            "source_exhausted": self.source_exhausted,
            "vertices": self.predictor.vertex_count if self.predictor else 0,
            "dynamic": self.config.dynamic_mode,
        }

    def __repr__(self) -> str:
        return (
            f"ShardedRunner(workers={self.workers}, k={self.config.k}, "
            f"checkpoint_dir={self.checkpoint_dir!r})"
        )
