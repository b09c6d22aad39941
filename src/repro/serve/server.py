"""The always-on serving tier: an asyncio HTTP service over the engine.

The library so far had a fast read path (:class:`~repro.serve.engine.
QueryEngine` over frozen :class:`~repro.serve.packed.PackedSketches`)
and a durable write path (:class:`~repro.stream.runner.StreamRunner`),
but no way to put either behind a socket.  :class:`SketchServer` is
that missing tier — a **stdlib-only** asyncio HTTP/1.1 service built
around one invariant:

    *Serving always reads an immutable generation.*

A :class:`Generation` bundles a :class:`QueryEngine` over one frozen
pack with a monotonically increasing number and the pack's sha256
:meth:`~repro.serve.packed.PackedSketches.fingerprint`.  Ingest keeps
running in a background thread against the live predictor; on the
refresh cadence that thread builds the *next* generation (pack + engine
construction happen entirely off the event loop) and publishes it by
assigning **one reference**.  A request resolves ``self._generation``
exactly once, so an in-flight read can never observe half of one
snapshot and half of another — every response is tagged with the
generation number and fingerprint it was answered from, which is how
the atomicity suite and ``bench_e17_serving`` prove the swap is torn-
read-free.

Endpoints (the versioned ``/v1/...`` spellings are canonical; the
unprefixed paths are permanent aliases for pre-versioning clients, and
every response carries ``X-Repro-Api-Version`` naming the version that
answered it):

* ``POST /v1/score`` — score a pair batch.  Body is JSON
  (``{"pairs": [[u, v], ...], "measure": "jaccard"}``, ids JSON
  integers) or the CLI's pair-file text format (``u v`` lines, ``#``
  comments); responses are JSON or CSV (``?format=csv``), in the exact
  shapes ``repro-linkpred query`` emits.
* ``GET /v1/topk/<vertex>`` — the engine's pruned top-k
  (``?measure=&k=&prune=``).
* ``GET /v1/healthz`` — liveness + the runner/engine ``stats()`` dicts.
* ``GET /v1/readyz`` — readiness: a generation is published, the server
  is not draining, and (when ingest is live) the served generation is
  not stale; 503 otherwise, with the reason.
* ``GET /v1/metrics`` — Prometheus text exposition of the shared
  registry (``Accept: application/json`` or ``?format=json`` returns
  the :func:`repro.obs.export.snapshot` JSON instead).

Concurrent small ``/score`` requests are **micro-batched**: requests
queue into a coalescer, and while the scoring thread is busy with one
kernel dispatch the next dispatch accumulates every request that
arrived meanwhile — one ``score_pairs_packed`` call for all of them
(batching by backpressure; no artificial delay is ever added).

Shutdown is a graceful drain: on SIGTERM the server stops accepting,
``/readyz`` flips to 503, in-flight requests finish (bounded by
``drain_timeout``), the ingest thread is joined, and a final checkpoint
is written when a checkpoint manager is armed — so a rolling restart
loses nothing.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
import json
import signal
import threading
import time
import urllib.parse
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ReproError
from repro.exact.measures import measure_by_name
from repro.graph.io import MAX_VERTEX_ID, read_pairs
from repro.obs.export import render_prometheus, snapshot
from repro.obs.registry import MetricsRegistry
from repro.serve.engine import QueryEngine

if TYPE_CHECKING:
    # Only live serving runs an ingest; static serving does not load it.
    from repro.stream.runner import StreamRunner

__all__ = ["Generation", "SketchServer"]

#: Pairs-per-dispatch histogram buckets (counts, not seconds).
_PAIR_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536)

_JSON = "application/json"
_TEXT = "text/plain; charset=utf-8"
_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"

#: The HTTP API version this server speaks.  ``/v1/...`` paths are the
#: canonical spellings; unprefixed paths alias to the same handlers,
#: and every response names its version in ``X-Repro-Api-Version``.
_API_VERSION = "1"
_API_PREFIX = f"/v{_API_VERSION}"

#: The attributes the ingest thread publishes to the event-loop side.
#: Everything the asyncio side needs from a swap hangs off the one
#: Generation reference — number, fingerprint, offset, published_at —
#: so one plain assignment is the entire cross-thread protocol.
#: repro-lint's RL004 enforces that no other attribute is written on
#: both sides of the boundary.
_PUBLICATION_ATTRS = frozenset({"_generation"})


class Generation:
    """One immutable served snapshot: engine, identity, provenance.

    Readers treat a published generation as frozen — the engine's store
    is a pack no writer touches again, so any number of concurrent
    requests may score through it while the next generation is being
    built.  ``offset`` records the ingest offset the pack reflects
    (0 for a static predictor), which is what ``/readyz`` compares
    against the live offset to judge staleness.
    """

    __slots__ = ("engine", "number", "fingerprint", "offset", "published_at", "wall_time")

    def __init__(
        self,
        engine: QueryEngine,
        number: int,
        offset: int,
        *,
        published_at: float,
        wall_time: float,
    ) -> None:
        self.engine = engine
        self.number = number
        self.fingerprint = engine.store.fingerprint()
        self.offset = offset
        self.published_at = published_at  # monotonic, for staleness
        self.wall_time = wall_time  # unix, for humans

    def __repr__(self) -> str:
        return (
            f"Generation({self.number}, vertices={self.engine.store.n_vertices}, "
            f"fingerprint={self.fingerprint[:12]}...)"
        )


class _Request:
    """One parsed HTTP request.

    A leading ``/v1`` prefix is normalized away here, so routing and
    handlers see one canonical path whichever spelling the client used.
    """

    __slots__ = ("method", "path", "query", "headers", "body", "close")

    def __init__(self, method: str, target: str, headers: Dict[str, str], body: bytes) -> None:
        self.method = method
        parsed = urllib.parse.urlsplit(target)
        path = parsed.path
        if path == _API_PREFIX or path.startswith(_API_PREFIX + "/"):
            path = path[len(_API_PREFIX):] or "/"
        self.path = path
        self.query = {k: v[-1] for k, v in urllib.parse.parse_qs(parsed.query).items()}
        self.headers = headers
        self.body = body
        self.close = headers.get("connection", "").lower() == "close"


class _HttpError(Exception):
    """A client-visible HTTP failure (status + message)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _ScoreBatcher:
    """Coalesce concurrent ``/score`` requests into kernel dispatches.

    Requests enqueue ``(generation, measure, pairs, future)``; a single
    worker task drains whatever is queued, groups it by ``(generation,
    measure)`` and runs **one** ``score_many`` per group in the scoring
    executor.  Because the drain happens only when the executor is
    free, batching scales with load automatically: at one request in
    flight there is no added latency, under concurrency every kernel
    dispatch carries everything that arrived while the previous one
    ran.
    """

    def __init__(
        self,
        executor: concurrent.futures.Executor,
        metrics: MetricsRegistry,
        *,
        max_batch_pairs: int,
    ) -> None:
        self._executor = executor
        self._queue: asyncio.Queue = asyncio.Queue()
        self._task: Optional[asyncio.Task] = None
        self.max_batch_pairs = max_batch_pairs
        self._m_dispatches = metrics.counter(
            "serve_kernel_dispatches_total",
            "score_many kernel dispatches issued by the micro-batcher",
        )
        self._m_coalesced = metrics.counter(
            "serve_coalesced_requests_total",
            "Requests that shared a kernel dispatch with at least one other",
        )
        self._m_batch_pairs = metrics.histogram(
            "serve_kernel_pairs",
            "Pairs per coalesced kernel dispatch",
            buckets=_PAIR_BUCKETS,
        )

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self._worker())

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def score(self, generation: Generation, pairs: np.ndarray, measure: str) -> np.ndarray:
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait((generation, measure, pairs, future))
        return await future

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            items = [await self._queue.get()]
            total = len(items[0][2])
            # Opportunistic drain: everything already queued joins this
            # dispatch round, up to the scratch-memory cap.
            while total < self.max_batch_pairs:
                try:
                    item = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                items.append(item)
                total += len(item[2])
            groups: Dict[Tuple[int, str], List] = {}
            for item in items:
                groups.setdefault((item[0].number, item[1]), []).append(item)
            for (_, measure), group in groups.items():
                generation = group[0][0]
                futures = [item[3] for item in group]
                pairs = (
                    group[0][2]
                    if len(group) == 1
                    else np.concatenate([item[2] for item in group])
                )
                self._m_dispatches.inc()
                self._m_batch_pairs.observe(len(pairs))
                if len(group) > 1:
                    self._m_coalesced.inc(len(group))
                try:
                    scores = await loop.run_in_executor(
                        self._executor,
                        functools.partial(generation.engine.score_many, pairs, measure),
                    )
                except Exception as error:  # surface to every waiter
                    for future in futures:
                        if not future.done():
                            future.set_exception(error)
                    continue
                lo = 0
                for item, future in zip(group, futures):
                    hi = lo + len(item[2])
                    if not future.done():
                        future.set_result(scores[lo:hi])
                    lo = hi


class _IngestWorker(threading.Thread):
    """The background write path: drive the runner, refresh on cadence.

    Runs ``runner.run(max_records=chunk)`` legs in a plain thread and
    asks the server to refresh between legs — so packing the live
    predictor never races a concurrent update, and generation builds
    never execute on the event loop.  An exhausted source parks the
    thread on the stop event (re-polling cheaply, which makes a
    growing file behave like a tail -f feed).
    """

    def __init__(self, server: "SketchServer", chunk: int, idle_wait: float) -> None:
        super().__init__(name="repro-serve-ingest", daemon=True)
        self.server = server
        self.chunk = chunk
        self.idle_wait = idle_wait
        self.stop_event = threading.Event()
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        server = self.server
        runner = server.runner
        assert runner is not None
        try:
            while not self.stop_event.is_set():
                before = runner.offset
                runner.run(max_records=self.chunk)
                advanced = runner.offset > before
                server._refresh_if_due(force=not advanced and runner.source_exhausted)
                if not advanced:
                    self.stop_event.wait(self.idle_wait)
        except BaseException as error:  # noqa: BLE001 — surfaced via /healthz
            self.error = error
            server._note_worker_error(error)


def _json_pairs(rows: list) -> np.ndarray:
    """JSON ``[[u, v], ...]`` rows → an ``(m, 2)`` int64 batch.

    An id must be a JSON integer in ``[0, MAX_VERTEX_ID]``: a bool, a
    float or a string is refused (``np.asarray`` would coerce each into
    some id), and so is a negative id, as in a text body.  The 400
    names the first bad pair by its index.
    """
    for index, row in enumerate(rows):
        if type(row) is list and len(row) == 2:
            u, v = row
            if type(u) is type(v) is int and 0 <= min(u, v) and max(u, v) <= MAX_VERTEX_ID:
                continue
        raise _HttpError(
            400,
            f"pairs[{index}]: {json.dumps(row)[:80]} is not [u, v] with integer ids "
            f"in [0, {MAX_VERTEX_ID}]",
        )
    return np.array(rows, dtype=np.int64).reshape(len(rows), 2)


class SketchServer:
    """The asyncio HTTP serving tier over a (possibly live) predictor.

    Construct with either a frozen ``predictor`` or
    :class:`~repro.serve.packed.PackedSketches` (static serving — no
    background writes, no refresh) or a warm ``runner`` (the server
    drives its ingest in a background thread and hot-swaps generations
    on the refresh cadence).  Most applications reach this through
    :func:`repro.api.serve` or ``repro-linkpred serve``.

    Parameters
    ----------
    predictor:
        Serve this predictor's current state as generation 1, statically
        — or a :class:`~repro.serve.packed.PackedSketches` as is.
    runner:
        A configured (optionally resumed) :class:`StreamRunner`; its
        predictor is packed as generation 1 and its source is consumed
        in the background.  Exactly one of ``predictor``/``runner``.
    host / port:
        Bind address.  ``port=0`` binds an ephemeral port; the bound
        value is available as :attr:`port` once :meth:`wait_ready`
        returns (and is passed to ``announce``).
    refresh_every:
        Seconds between generation hot-swaps (live runners only; a
        refresh is skipped when no records arrived since the last one).
        ``0`` disables periodic refresh — the stream still publishes
        once on exhaustion.
    drain_timeout:
        Seconds the drain waits for in-flight requests on shutdown.
    stale_after:
        ``/readyz`` flips to 503 when the served generation trails the
        ingest offset by more than this many seconds (default
        ``10 * refresh_every``; ``None`` with no refresh cadence
        disables the check).
    ingest_chunk / idle_wait:
        Records per background ``run()`` leg, and the poll interval on
        an exhausted source.
    max_batch_pairs:
        Micro-batcher cap on pairs per coalesced kernel dispatch.
    max_request_pairs / max_body_bytes:
        Per-request limits (413 beyond them).
    keep_history:
        Retain the last N published generations on
        :attr:`history` — the hook the atomicity tests and
        ``bench_e17_serving`` use to re-score responses offline.
        ``0`` (default) keeps none.
    engine_options:
        Passed through to each generation's :class:`QueryEngine`
        (``bands``, ``rows``, ``batch_size``, ...).
    metrics:
        Shared :class:`MetricsRegistry`; defaults to the runner's (so
        one ``/metrics`` scrape covers ``ingest_*``, ``query_*`` and
        ``http_*``) or a fresh one for static serving.
    announce:
        Called once with the served URL after the socket is bound.
    debug_dispatch_delay:
        Test hook: seconds each request handler sleeps (on the event
        loop, per request) before dispatching — lets the drain tests
        hold a request in flight deterministically.
    """

    def __init__(
        self,
        predictor=None,
        *,
        runner: Optional[StreamRunner] = None,
        host: str = "127.0.0.1",
        port: int = 8080,
        refresh_every: float = 5.0,
        drain_timeout: float = 10.0,
        stale_after: Optional[float] = None,
        ingest_chunk: int = 2048,
        idle_wait: float = 0.05,
        max_batch_pairs: int = 65536,
        max_request_pairs: int = 100_000,
        max_body_bytes: int = 32 << 20,
        keep_history: int = 0,
        engine_options: Optional[Dict[str, object]] = None,
        metrics: Optional[MetricsRegistry] = None,
        announce: Optional[Callable[[str], None]] = None,
        debug_dispatch_delay: float = 0.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if (predictor is None) == (runner is None):
            raise ConfigurationError("pass exactly one of predictor or runner")
        if refresh_every < 0 or drain_timeout < 0:
            raise ConfigurationError("refresh_every and drain_timeout must be >= 0")
        if ingest_chunk < 1:
            raise ConfigurationError(f"ingest_chunk must be positive, got {ingest_chunk}")
        if max_batch_pairs < 1:
            raise ConfigurationError(
                f"max_batch_pairs must be positive, got {max_batch_pairs}"
            )
        self.runner = runner
        self._static_predictor = predictor
        self.max_batch_pairs = max_batch_pairs
        self.host = host
        self.port = port  # rewritten with the bound port in start()
        self.refresh_every = refresh_every
        self.drain_timeout = drain_timeout
        if stale_after is None and refresh_every > 0:
            stale_after = 10.0 * refresh_every
        self.stale_after = stale_after
        self.max_request_pairs = max_request_pairs
        self.max_body_bytes = max_body_bytes
        self.keep_history = keep_history
        self.engine_options = dict(engine_options or {})
        self.announce = announce
        self.debug_dispatch_delay = debug_dispatch_delay
        self.clock = clock
        if metrics is None:
            metrics = runner.metrics if runner is not None else MetricsRegistry()
        self.metrics = metrics
        #: Published generations, newest last (bounded by keep_history).
        self.history: List[Generation] = []
        self._generation: Optional[Generation] = None
        self._started_wall = time.time()
        self._started_mono = clock()
        self._draining = False
        self._inflight = 0
        self._worker_error: Optional[str] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._batcher: Optional[_ScoreBatcher] = None
        self._executor: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._worker = (
            _IngestWorker(self, ingest_chunk, idle_wait) if runner is not None else None
        )
        self._shutdown_requested: Optional[asyncio.Event] = None
        self._idle: Optional[asyncio.Event] = None
        self._ready = threading.Event()  # cross-thread wait_ready()
        self._finished = threading.Event()
        self._connections: set = set()
        # --- instruments (the http_*/serve_* families) -----------------
        self._m_requests = metrics.counter(
            "http_requests_total",
            "HTTP requests served, by endpoint and status code",
            labelnames=("endpoint", "code"),
        )
        self._m_latency = metrics.histogram(
            "http_request_seconds",
            "Wall seconds per request, by endpoint",
            labelnames=("endpoint",),
        )
        metrics.gauge(
            "serve_generation", "Number of the generation currently served"
        ).set_function(lambda: self._generation.number if self._generation else 0)
        metrics.gauge(
            "serve_generation_age_seconds",
            "Seconds since the served generation was published (-1 before the first)",
        ).set_function(
            lambda: -1.0
            if self._generation is None
            else self.clock() - self._generation.published_at
        )
        self._m_swaps = metrics.counter(
            "serve_swaps_total", "Generation hot-swaps since startup (gen 1 included)"
        )
        metrics.gauge(
            "serve_inflight_requests", "Requests currently being handled"
        ).set_function(lambda: self._inflight)
        metrics.gauge(
            "serve_draining", "1 while the server is draining, else 0"
        ).set_function(lambda: int(self._draining))
        metrics.gauge(
            "serve_uptime_seconds", "Seconds since the server started"
        ).set_function(lambda: self.clock() - self._started_mono)

    # ------------------------------------------------------------------
    # Generations
    # ------------------------------------------------------------------

    @property
    def generation(self) -> Optional[Generation]:
        """The currently served generation (readers grab this once)."""
        return self._generation

    @property
    def predictor(self):
        """The live predictor (re-read through the runner, which may
        replace its predictor object on :meth:`StreamRunner.resume`),
        or the static predictor or pack."""
        return self.runner.predictor if self.runner is not None else self._static_predictor

    def _build_generation(self) -> Generation:
        """Pack the predictor's current state into the next generation.

        Called from the ingest worker between ``run()`` legs (or from
        ``start()`` before serving), so the predictor is quiescent for
        the duration of the pack.
        """
        engine = QueryEngine(self.predictor, metrics=self.metrics, **self.engine_options)
        # The next number is derived from the published generation, not
        # a separate counter — builds happen on one side at a time (the
        # worker thread, or start() before the worker exists), so the
        # read-derive-publish sequence never races, and the server keeps
        # exactly one cross-boundary attribute: the publication itself.
        current = self._generation
        return Generation(
            engine,
            current.number + 1 if current is not None else 1,
            self.runner.offset if self.runner is not None else 0,
            published_at=self.clock(),
            wall_time=time.time(),
        )

    def _publish(self, generation: Generation) -> None:
        # The hot-swap: one reference assignment.  In-flight requests
        # hold the previous Generation object and finish against it.
        self._generation = generation
        self._m_swaps.inc()
        if self.keep_history:
            self.history.append(generation)
            del self.history[: -self.keep_history]

    def refresh(self) -> Generation:
        """Build and publish a new generation now (caller must own the
        predictor's quiet period — the ingest worker does this between
        legs; with a static predictor it is always safe)."""
        generation = self._build_generation()
        self._publish(generation)
        return generation

    def _refresh_if_due(self, force: bool = False) -> None:
        """Worker-thread refresh gate: publish when the cadence elapsed
        (or ``force``) and the committed offset actually advanced."""
        if self.runner is None:
            return
        current = self._generation
        if current is not None and self.runner.offset == current.offset:
            return  # nothing new to publish
        if not force:
            if self.refresh_every <= 0:
                return
            last = current.published_at if current is not None else self._started_mono
            if self.clock() - last < self.refresh_every:
                return
        self.refresh()

    def _note_worker_error(self, error: BaseException) -> None:
        self._worker_error = f"{type(error).__name__}: {error}"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket, publish generation 1, start ingest."""
        self._loop = asyncio.get_running_loop()
        self._shutdown_requested = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-score"
        )
        self._batcher = _ScoreBatcher(
            self._executor, self.metrics, max_batch_pairs=self.max_batch_pairs
        )
        self._batcher.start()
        self.refresh()  # generation 1, before any request can arrive
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self._worker is not None:
            self._worker.start()
        self._ready.set()
        if self.announce is not None:
            self.announce(f"http://{self.host}:{self.port}")

    def wait_ready(self, timeout: Optional[float] = None) -> bool:
        """Block (from any thread) until the server is accepting."""
        return self._ready.wait(timeout)

    def wait_finished(self, timeout: Optional[float] = None) -> bool:
        """Block (from any thread) until :meth:`run` has fully exited."""
        return self._finished.wait(timeout)

    def request_shutdown(self) -> None:
        """Begin a graceful drain; safe from any thread or signal."""
        loop = self._loop
        if loop is None or self._shutdown_requested is None:
            return
        loop.call_soon_threadsafe(self._shutdown_requested.set)

    async def serve_until_shutdown(self) -> None:
        """:meth:`start`, then block until a drain completes."""
        await self.start()
        assert self._shutdown_requested is not None
        await self._shutdown_requested.wait()
        await self._drain()

    def run(self, *, install_signals: bool = True) -> int:
        """Synchronous entry point: serve until SIGTERM/SIGINT, drain,
        return the process exit code (0 on a clean drain)."""
        try:
            asyncio.run(self._main(install_signals))
            return 0
        finally:
            self._finished.set()

    async def _main(self, install_signals: bool) -> None:
        await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.request_shutdown)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass  # non-main thread or platform without support
        assert self._shutdown_requested is not None
        await self._shutdown_requested.wait()
        await self._drain()

    async def _drain(self) -> None:
        """Stop accepting, finish in-flight work, checkpoint, stop."""
        self._draining = True  # /readyz goes 503 immediately
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        assert self._idle is not None
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=self.drain_timeout or None)
        except asyncio.TimeoutError:
            pass  # give up on stragglers; the registry records them as in flight
        for writer in list(self._connections):
            writer.close()
        if self._worker is not None:
            self._worker.stop_event.set()
            await asyncio.get_running_loop().run_in_executor(None, self._worker.join)
        if (
            self.runner is not None
            and self.runner.checkpoints is not None
            and self._worker is not None
            and self._worker.error is None
        ):
            # The final checkpoint: a restart resumes exactly here.
            await asyncio.get_running_loop().run_in_executor(None, self.runner.checkpoint)
        if self._batcher is not None:
            await self._batcher.stop()
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as error:
                    writer.write(self._render_error(error.status, str(error), close=True))
                    await writer.drain()
                    break
                if request is None:
                    break
                payload = await self._respond(request)
                writer.write(payload)
                await writer.drain()
                if request.close or self._draining:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader) -> Optional[_Request]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return None  # clean EOF between keep-alive requests
        except asyncio.LimitOverrunError:
            raise _HttpError(431, "request head too large") from None
        try:
            text = head.decode("latin-1")
            request_line, *header_lines = text.split("\r\n")
            method, target, _version = request_line.split(" ", 2)
        except ValueError:
            raise _HttpError(400, "malformed request line") from None
        headers: Dict[str, str] = {}
        for line in header_lines:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise _HttpError(400, f"bad Content-Length {length_text!r}") from None
        if length < 0 or length > self.max_body_bytes:
            raise _HttpError(413, f"body of {length} bytes exceeds {self.max_body_bytes}")
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                return None
        return _Request(method.upper(), target, headers, body)

    def _render(
        self,
        status: int,
        body: bytes,
        content_type: str,
        extra_headers: Optional[Dict[str, str]] = None,
        close: bool = False,
    ) -> bytes:
        lines = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'close' if close or self._draining else 'keep-alive'}",
            f"X-Repro-Api-Version: {_API_VERSION}",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body

    def _render_json(
        self,
        status: int,
        payload: Dict[str, object],
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> bytes:
        body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        return self._render(status, body, _JSON, extra_headers)

    def _render_error(self, status: int, message: str, close: bool = False) -> bytes:
        body = (json.dumps({"error": message}) + "\n").encode("utf-8")
        return self._render(status, body, _JSON, close=close)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _endpoint_of(self, request: _Request) -> str:
        path = request.path
        if path == "/score":
            return "score"
        if path.startswith("/topk/"):
            return "topk"
        if path in ("/healthz", "/readyz", "/metrics"):
            return path[1:]
        return "other"

    async def _respond(self, request: _Request) -> bytes:
        endpoint = self._endpoint_of(request)
        started = self.clock()
        self._inflight += 1
        assert self._idle is not None
        self._idle.clear()
        status = 500
        try:
            payload = await self._dispatch(request, endpoint)
            status = payload[0]
            return payload[1]
        except _HttpError as error:
            status = error.status
            return self._render_error(error.status, str(error))
        except ReproError as error:
            # Bad measure, malformed pairs, engine misuse: client errors.
            status = 400
            return self._render_error(400, str(error))
        except Exception as error:  # noqa: BLE001 — keep the server up
            status = 500
            return self._render_error(500, f"{type(error).__name__}: {error}")
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()
            self._m_requests.labels(endpoint, str(status)).inc()
            self._m_latency.labels(endpoint).observe(self.clock() - started)

    async def _dispatch(self, request: _Request, endpoint: str) -> Tuple[int, bytes]:
        if endpoint == "score":
            if request.method != "POST":
                raise _HttpError(405, "POST /v1/score")
            return await self._handle_score(request)
        if endpoint == "topk":
            if request.method != "GET":
                raise _HttpError(405, "GET /v1/topk/<vertex>")
            return await self._handle_topk(request)
        if request.method != "GET":
            raise _HttpError(405, f"GET /{endpoint}")
        if endpoint == "healthz":
            return self._handle_healthz()
        if endpoint == "readyz":
            return self._handle_readyz()
        if endpoint == "metrics":
            return self._handle_metrics(request)
        raise _HttpError(404, f"no route for {request.path!r}")

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def _generation_or_503(self) -> Generation:
        generation = self._generation
        if generation is None:
            raise _HttpError(503, "no generation published yet")
        return generation

    def _parse_pairs(self, request: _Request) -> Tuple[np.ndarray, Optional[str]]:
        """Decode a /score body into an ``(m, 2)`` int64 batch.

        JSON bodies may also carry the measure; text bodies are the
        CLI's pair-file format (:func:`~repro.graph.io.read_pairs`).
        """
        content_type = request.headers.get("content-type", "").split(";")[0].strip()
        measure = None
        if content_type == _JSON or (
            not content_type and request.body.lstrip()[:1] in (b"{", b"[")
        ):
            try:
                document = json.loads(request.body.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as error:
                raise _HttpError(400, f"request body is not JSON: {error}") from None
            if isinstance(document, list):
                raw_pairs = document
            elif isinstance(document, dict):
                raw_pairs = document.get("pairs")
                measure = document.get("measure")
            else:
                raise _HttpError(400, "JSON body must be an object or a pair list")
            if not isinstance(raw_pairs, list):
                raise _HttpError(400, 'JSON body needs a "pairs" list of [u, v] pairs')
            pairs = _json_pairs(raw_pairs)
        else:
            try:
                text = request.body.decode("utf-8")
            except UnicodeDecodeError as error:
                raise _HttpError(400, f"text body is not UTF-8: {error}") from None
            try:
                pairs = read_pairs(text.splitlines())
            except ReproError as error:
                raise _HttpError(400, f"pair {error}") from None  # "pair line N: ..."
        if len(pairs) > self.max_request_pairs:
            raise _HttpError(
                413,
                f"{len(pairs)} pairs exceeds the per-request limit of "
                f"{self.max_request_pairs}; split the batch",
            )
        return pairs, measure

    async def _handle_score(self, request: _Request) -> Tuple[int, bytes]:
        generation = self._generation_or_503()
        if self.debug_dispatch_delay:
            # Test hook: hold the request in flight *after* it resolved
            # its generation — the window the atomicity and drain tests
            # need to be deterministic about.
            await asyncio.sleep(self.debug_dispatch_delay)
        pairs, body_measure = self._parse_pairs(request)
        measure = body_measure or request.query.get("measure") or "jaccard"
        measure_by_name(measure)  # 400 on unknown measures, before queueing
        assert self._batcher is not None
        scores = await self._batcher.score(generation, pairs, measure)
        headers = {
            "X-Repro-Generation": str(generation.number),
            "X-Repro-Fingerprint": generation.fingerprint,
        }
        if request.query.get("format") == "csv":
            lines = [f"u,v,{measure}"]
            lines += [
                f"{int(u)},{int(v)},{float(s)!r}"
                for (u, v), s in zip(pairs.tolist(), scores.tolist())
            ]
            body = ("\n".join(lines) + "\n").encode("utf-8")
            return 200, self._render(200, body, _TEXT, headers)
        payload = {
            "measure": measure,
            "generation": generation.number,
            "fingerprint": generation.fingerprint,
            "results": [
                {"u": int(u), "v": int(v), "score": float(s)}
                for (u, v), s in zip(pairs.tolist(), scores.tolist())
            ],
        }
        return 200, self._render_json(200, payload, headers)

    async def _handle_topk(self, request: _Request) -> Tuple[int, bytes]:
        generation = self._generation_or_503()
        vertex_text = request.path[len("/topk/"):]
        try:
            vertex = int(vertex_text)
        except ValueError:
            raise _HttpError(400, f"vertex must be an integer, got {vertex_text!r}") from None
        measure = request.query.get("measure", "jaccard")
        try:
            k = int(request.query.get("k", "10"))
        except ValueError:
            raise _HttpError(400, "k must be an integer") from None
        prune_text = request.query.get("prune")
        prune = None if prune_text is None else prune_text.lower() not in ("0", "false", "no")
        loop = asyncio.get_running_loop()
        assert self._executor is not None
        # Through the scoring executor: serializes with the batcher, so
        # the lazy LSH index build is single-threaded per generation.
        ranked = await loop.run_in_executor(
            self._executor,
            functools.partial(generation.engine.top_k, vertex, measure, k=k, prune=prune),
        )
        payload = {
            "vertex": vertex,
            "measure": measure,
            "generation": generation.number,
            "fingerprint": generation.fingerprint,
            "results": [{"v": int(v), "score": float(s)} for v, s in ranked],
        }
        headers = {
            "X-Repro-Generation": str(generation.number),
            "X-Repro-Fingerprint": generation.fingerprint,
        }
        return 200, self._render_json(200, payload, headers)

    def _safe_stats(self, stats_fn: Callable[[], Dict[str, object]]) -> Dict[str, object]:
        """A stats() read that tolerates the ingest thread registering a
        new label series mid-iteration (retry once, then degrade)."""
        for _ in range(2):
            try:
                return stats_fn()
            except RuntimeError:
                continue
        return {"unavailable": "stats raced an ingest update; scrape again"}

    def _handle_healthz(self) -> Tuple[int, bytes]:
        generation = self._generation
        payload: Dict[str, object] = {
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": self.clock() - self._started_mono,
            "generation": generation.number if generation else 0,
            "fingerprint": generation.fingerprint if generation else None,
            "inflight": self._inflight,
        }
        if generation is not None:
            payload["engine"] = self._safe_stats(generation.engine.stats)
        if self.runner is not None:
            payload["ingest"] = self._safe_stats(self.runner.stats)
            if self._worker_error:
                payload["ingest_error"] = self._worker_error
        return 200, self._render_json(200, payload)

    def _readiness(self) -> Tuple[bool, str]:
        """The /readyz verdict: (ready, reason)."""
        if self._draining:
            return False, "draining"
        generation = self._generation
        if generation is None:
            return False, "no generation published"
        if self._worker_error:
            return False, f"ingest worker failed: {self._worker_error}"
        if (
            self.runner is not None
            and self.stale_after is not None
            and self.runner.offset > generation.offset
            and self.clock() - generation.published_at > self.stale_after
        ):
            return False, (
                f"generation {generation.number} is stale: ingest is at offset "
                f"{self.runner.offset} but the pack reflects {generation.offset} "
                f"and no refresh happened for > {self.stale_after:.1f}s"
            )
        return True, "ok"

    def _handle_readyz(self) -> Tuple[int, bytes]:
        ready, reason = self._readiness()
        generation = self._generation
        status = 200 if ready else 503
        payload: Dict[str, object] = {
            "ready": ready,
            "reason": reason,
            "generation": generation.number if generation else 0,
            "generation_age_seconds": (
                self.clock() - generation.published_at if generation else -1.0
            ),
        }
        if self.runner is not None:
            payload["ingest_offset"] = self.runner.offset
            payload["generation_offset"] = generation.offset if generation else 0
        return status, self._render_json(status, payload)

    def _handle_metrics(self, request: _Request) -> Tuple[int, bytes]:
        wants_json = request.query.get("format") == "json" or _JSON in request.headers.get(
            "accept", ""
        )
        if wants_json:
            body = (json.dumps(snapshot(self.metrics)) + "\n").encode("utf-8")
            return 200, self._render(200, body, _JSON)
        body = render_prometheus(self.metrics).encode("utf-8")
        return 200, self._render(200, body, _PROMETHEUS)

    def __repr__(self) -> str:
        generation = self._generation
        return (
            f"SketchServer({self.host}:{self.port}, "
            f"generation={generation.number if generation else 0}, "
            f"live={self.runner is not None})"
        )
