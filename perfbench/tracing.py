"""Spans around the program's public calls, recorded from outside ``src/``.

:func:`install` wraps the public functions and methods each layer exposes
(``FileEdgeSource.records``, ``StreamGuard.evaluate``,
``MinHashLinkPredictor.update_block``, ``CheckpointManager.save``,
``QueryEngine.score_many``, ...) so a traced program process records a
span per call: name, start, end and parent, on ``time.monotonic``
(``CLOCK_MONOTONIC``, shared by every process on the host, which is how
server spans line up with the client's request times).  Calls that run
once per record (source reads, guard verdicts, line parsing) are too
many to keep one span each; they are summed into the innermost open
span as ``(seconds, calls)`` instead.  Spans stay in memory and are
written out when the process ends.

A layer's self time is its spans' duration minus the time their child
spans and summed calls cover.  The summary names each layer by the
module that owns the wrapped call.
"""

from __future__ import annotations

import functools
import multiprocessing.process
import multiprocessing.queues
import os
import threading
import time
from typing import Dict, List

monotonic = time.monotonic

#: Summed per-record calls nested inside another summed call: the child
#: is subtracted from the parent's self time.
NESTED_CALLS = {"graph.io.parse": "stream.policies.evaluate"}


class Tracer:
    """In-memory spans of one process, nested per thread."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent, calls, extra]
        self.counts: Dict[str, float] = {}
        self._local = threading.local()

    def reset(self) -> None:
        """Forget everything (a forked child starts its own record)."""
        self.spans = []
        self.counts = {}
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, monotonic(), None, stack[-1] if stack else None, {}, {}])
        stack.append(index)
        return index

    def close(self, index: int, **extra) -> None:
        span = self.spans[index]
        span[2] = monotonic()
        span[5].update(extra)
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def add_call(self, name: str, seconds: float) -> None:
        """Sum one per-record call into the innermost open span."""
        stack = self._stack()
        if not stack:
            return
        calls = self.spans[stack[-1]][4]
        entry = calls.get(name)
        if entry is None:
            calls[name] = [seconds, 1]
        else:
            entry[0] += seconds
            entry[1] += 1

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def _span(tracer: Tracer, name: str, extra=None):
    """Decorator factory: one span per call of the wrapped function."""

    def wrap(function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            values = {}
            try:
                result = function(*args, **kwargs)
                if extra is not None:
                    values = extra(args, result)
                return result
            finally:
                tracer.close(index, **values)

        return traced

    return wrap


def _summed(tracer: Tracer, name: str):
    """Decorator factory: per-record calls summed into the open span."""

    def wrap(function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            started = monotonic()
            try:
                return function(*args, **kwargs)
            finally:
                tracer.add_call(name, monotonic() - started)

        return traced

    return wrap


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (idempotent per process)."""
    from repro.core import lshindex, predictor
    from repro.parallel import runner as parallel_runner
    from repro.serve import engine, packed, server
    from repro.stream import checkpoint, policies, runner, sources

    span = functools.partial(_span, tracer)

    def patch(owner, attribute: str, decorator) -> None:
        current = getattr(owner, attribute)
        if getattr(current, "__wrapped_by_perfbench__", False):
            return
        wrapped = decorator(current)
        wrapped.__wrapped_by_perfbench__ = True
        setattr(owner, attribute, wrapped)

    # Ingest path.
    original_records = sources.FileEdgeSource.records

    def records(self, start_offset: int = 0):
        tracer.count("stream.sources.rescanned_records", start_offset)
        inner = original_records(self, start_offset)
        try:
            while True:
                started = monotonic()
                try:
                    item = next(inner)
                except StopIteration:
                    tracer.add_call("stream.sources.read", monotonic() - started)
                    return
                tracer.add_call("stream.sources.read", monotonic() - started)
                yield item
        finally:
            inner.close()

    if not getattr(original_records, "__wrapped_by_perfbench__", False):
        records.__wrapped_by_perfbench__ = True
        sources.FileEdgeSource.records = records
    patch(policies.StreamGuard, "evaluate", _summed(tracer, "stream.policies.evaluate"))
    patch(policies, "parse_stream_record", _summed(tracer, "graph.io.parse"))
    patch(runner.StreamRunner, "run", span("stream.runner.run"))
    patch(
        predictor.MinHashLinkPredictor,
        "update_block",
        span("core.update_block", lambda args, result: {"edges": len(args[1])}),
    )
    patch(
        checkpoint.CheckpointManager,
        "save",
        span("stream.checkpoint.save", lambda args, result: {"bytes": os.path.getsize(result)}),
    )
    patch(checkpoint, "save_predictor", span("core.persistence.save"))
    patch(checkpoint.CheckpointManager, "load_latest", span("stream.checkpoint.load"))
    # Sharded coordinator: spawn, routed chunks (the bounded queue put
    # blocks under backpressure) and the shard merge.
    patch(parallel_runner.ShardedRunner, "run", span("parallel.run"))
    patch(multiprocessing.process.BaseProcess, "start", span("parallel.spawn"))
    patch(
        multiprocessing.queues.Queue,
        "put",
        span("parallel.put", lambda args, result: {"chunks": int(args[1][0] == "edges")}),
    )
    patch(parallel_runner, "merge_shards", span("parallel.merge"))
    # Serving path.
    patch(server.SketchServer, "refresh", span("serve.server.refresh"))
    patch(engine.QueryEngine, "__init__", span("serve.engine.build"))
    patch(packed.PackedSketches, "fingerprint", span("serve.packed.fingerprint"))
    original_pack = packed.PackedSketches.from_predictor.__func__
    if not getattr(original_pack, "__wrapped_by_perfbench__", False):
        wrapped_pack = span("serve.packed.pack")(original_pack)
        wrapped_pack.__wrapped_by_perfbench__ = True
        packed.PackedSketches.from_predictor = classmethod(wrapped_pack)
    patch(lshindex.LshCandidateIndex, "__init__", span("serve.engine.index_build"))
    patch(
        lshindex.LshCandidateIndex,
        "candidates_of",
        span("serve.engine.candidates", lambda args, result: {"candidates": len(result)}),
    )
    patch(
        engine.QueryEngine,
        "score_many",
        span("serve.engine.score_many", lambda args, result: {"pairs": len(result)}),
    )
    patch(engine, "score_pairs_packed", span("serve.kernels.score"))
    patch(engine.QueryEngine, "top_k", span("serve.engine.top_k"))


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------

#: Per-layer metrics derived from the spans (name, unit, direction).
LAYERS = (
    ("graph.io.parse_s", "s", "lower"),
    ("stream.sources.read_s", "s", "lower"),
    ("stream.sources.rescanned_records", "count", "lower"),
    ("stream.policies.evaluate_s", "s", "lower"),
    ("stream.policies.records", "count", "lower"),
    ("stream.runner.self_s", "s", "lower"),
    ("core.update_block_s", "s", "lower"),
    ("core.update_block_calls", "count", "lower"),
    ("stream.checkpoint.save_s", "s", "lower"),
    ("core.persistence.save_s", "s", "lower"),
    ("stream.checkpoint.saves", "count", "lower"),
    ("stream.checkpoint.bytes", "bytes", "lower"),
    ("stream.checkpoint.load_s", "s", "lower"),
    ("parallel.spawn_s", "s", "lower"),
    ("parallel.put_wait_s", "s", "lower"),
    ("parallel.chunks_sent", "count", "lower"),
    ("parallel.shard_skew", "ratio", "lower"),
    ("parallel.worker_cpu_s", "s", "lower"),
    ("parallel.worker_wait_s", "s", "lower"),
    ("parallel.merge_s", "s", "lower"),
    ("serve.engine.build_s", "s", "lower"),
    ("serve.packed.pack_s", "s", "lower"),
    ("serve.packed.fingerprint_s", "s", "lower"),
    ("serve.engine.generations", "count", "lower"),
    ("serve.engine.index_build_s", "s", "lower"),
    ("serve.engine.score_many_s", "s", "lower"),
    ("serve.kernels.score_s", "s", "lower"),
    ("serve.engine.dispatches", "count", "lower"),
    ("serve.engine.pairs_per_dispatch", "pairs", "higher"),
    ("serve.engine.top_k_s", "s", "lower"),
    ("serve.engine.candidates_per_topk", "count", "lower"),
    ("serve.server.self_ms", "ms", "lower"),
    ("serve.server.coalesced_requests", "count", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.uncovered_s", "s", "lower"),
)


def self_times(dump: dict) -> Dict[str, dict]:
    """Per-layer ``{seconds, self, calls, <extras>}`` over one process's
    spans; summed per-record calls count as children of their span."""
    spans = dump["spans"]
    children: Dict[int, float] = {}
    for name, start, end, parent, calls, extra in spans:
        if parent is not None and end is not None:
            children[parent] = children.get(parent, 0.0) + (end - start)
    out: Dict[str, dict] = {}

    def bucket(name):
        return out.setdefault(name, {"seconds": 0.0, "self": 0.0, "calls": 0})

    for index, (name, start, end, parent, calls, extra) in enumerate(spans):
        if end is None:
            continue
        duration = end - start
        summed = sum(
            seconds for call, (seconds, _) in calls.items() if call not in NESTED_CALLS
        )
        entry = bucket(name)
        entry["seconds"] += duration
        entry["self"] += duration - children.get(index, 0.0) - summed
        entry["calls"] += 1
        for key, value in extra.items():
            entry[key] = entry.get(key, 0) + value
        for call, (seconds, count) in calls.items():
            nested = sum(
                calls[child][0]
                for child, owner in NESTED_CALLS.items()
                if owner == call and child in calls
            )
            child = bucket(call)
            child["seconds"] += seconds
            child["self"] += seconds - nested
            child["calls"] += count
    return out


def _get(times: dict, name: str, key: str = "self") -> float:
    return float(times.get(name, {}).get(key, 0.0))


def _merge(into: dict, times: dict) -> None:
    for name, entry in times.items():
        target = into.setdefault(name, {})
        for key, value in entry.items():
            target[key] = target.get(key, 0) + value


def _ingest_side(times: dict, counts: dict) -> Dict[str, float]:
    """The per-record layers of one process that drove a runner."""
    return {
        "graph.io.parse_s": _get(times, "graph.io.parse"),
        "stream.sources.read_s": _get(times, "stream.sources.read"),
        "stream.sources.rescanned_records": counts.get("stream.sources.rescanned_records", 0),
        "stream.policies.evaluate_s": _get(times, "stream.policies.evaluate"),
        "stream.policies.records": _get(times, "stream.policies.evaluate", "calls"),
        "stream.runner.self_s": _get(times, "stream.runner.run") + _get(times, "parallel.run"),
    }


def ingest_layers(report: dict) -> Dict[str, float]:
    """Layers of one traced ``ingest`` pass (program process + workers).

    Worker spans run beside the coordinator, so their seconds add up
    busy time across processes, not wall time.
    """
    dump = report["trace"]
    main = self_times(dump)
    everything: Dict[str, dict] = {}
    _merge(everything, main)
    worker_wait = 0.0
    for worker in report["workers"]:
        times = self_times(worker["trace"])
        _merge(everything, times)
        busy = _get(times, "core.update_block", "seconds") + _get(
            times, "stream.checkpoint.save", "seconds"
        )
        worker_wait += worker["wall_s"] - busy
    layers = {name: 0.0 for name, _, _ in LAYERS}
    layers.update(_ingest_side(main, dump["counts"]))
    layers.update({
        "core.update_block_s": _get(everything, "core.update_block"),
        "core.update_block_calls": _get(everything, "core.update_block", "calls"),
        "stream.checkpoint.save_s": _get(everything, "stream.checkpoint.save"),
        "core.persistence.save_s": _get(everything, "core.persistence.save"),
        "stream.checkpoint.saves": _get(everything, "stream.checkpoint.save", "calls"),
        "stream.checkpoint.bytes": _get(everything, "stream.checkpoint.save", "bytes"),
        "parallel.put_wait_s": _get(main, "parallel.put", "seconds"),
        "parallel.chunks_sent": _get(main, "parallel.put", "chunks"),
        "parallel.merge_s": _get(main, "parallel.merge", "seconds"),
        "trace.wall_s": report["wall_s"],
        "trace.uncovered_s": _get(main, "api.ingest"),
    })
    workers = report["workers"]
    if workers:
        starts = [span[1] for span in dump["spans"] if span[0] == "parallel.spawn"]
        shard_records = report["stats"]["shard_records"]
        layers.update({
            "parallel.spawn_s": max(w["entered"] for w in workers) - min(starts),
            "parallel.shard_skew": max(shard_records) * len(shard_records) / sum(shard_records),
            "parallel.worker_cpu_s": sum(w["cpu_s"] for w in workers),
            "parallel.worker_wait_s": worker_wait,
        })
    return layers


def serve_layers(dump: dict, requests, window, live: bool) -> Dict[str, float]:
    """Layers of one traced server: ``requests`` are the client's
    ``(sent, received)`` times, ``window`` the measured interval."""
    times = self_times(dump)
    dispatches = _get(times, "serve.engine.score_many", "calls")
    topk = _get(times, "serve.engine.top_k", "calls")
    layers = {name: 0.0 for name, _, _ in LAYERS}
    layers.update({
        "stream.checkpoint.load_s": _get(times, "stream.checkpoint.load"),
        "serve.engine.build_s": _get(times, "serve.engine.build"),
        "serve.packed.pack_s": _get(times, "serve.packed.pack"),
        "serve.packed.fingerprint_s": _get(times, "serve.packed.fingerprint"),
        "serve.engine.generations": _get(times, "serve.engine.build", "calls"),
        "serve.engine.index_build_s": _get(times, "serve.engine.index_build"),
        "serve.engine.score_many_s": _get(times, "serve.engine.score_many"),
        "serve.kernels.score_s": _get(times, "serve.kernels.score"),
        "serve.engine.dispatches": dispatches,
        "serve.engine.pairs_per_dispatch": (
            _get(times, "serve.engine.score_many", "pairs") / dispatches if dispatches else 0.0
        ),
        # top_k minus the score_many it calls (candidates_of is a child).
        "serve.engine.top_k_s": _get(times, "serve.engine.top_k")
        + _get(times, "serve.engine.candidates"),
        "serve.engine.candidates_per_topk": (
            _get(times, "serve.engine.candidates", "candidates") / topk if topk else 0.0
        ),
        "trace.wall_s": window[1] - window[0],
    })
    # Engine calls run on the scoring thread with no parent span.  With
    # one connection at most one request is in flight, so every engine
    # span inside a request's send/receive interval belongs to it.
    engine = sorted(
        (span[1], span[2])
        for span in dump["spans"]
        if span[3] is None and span[2] is not None
        and span[0] in ("serve.engine.score_many", "serve.engine.top_k")
    )
    server_self = []
    cursor = 0
    for sent, received in requests:
        while cursor < len(engine) and engine[cursor][0] < sent:
            cursor += 1
        inside = 0.0
        while cursor < len(engine) and engine[cursor][1] <= received:
            inside += engine[cursor][1] - engine[cursor][0]
            cursor += 1
        server_self.append(received - sent - inside)
    if server_self:
        layers["serve.server.self_ms"] = 1000.0 * sorted(server_self)[len(server_self) // 2]
    if live:
        layers.update(_ingest_side(times, dump["counts"]))
        layers.update({
            "core.update_block_s": _get(times, "core.update_block"),
            "core.update_block_calls": _get(times, "core.update_block", "calls"),
        })
        # The ingest thread: its run() legs and refreshes, in the window.
        covered = sum(
            span[2] - span[1]
            for span in dump["spans"]
            if span[3] is None and span[2] is not None
            and span[0] in ("stream.runner.run", "serve.server.refresh")
            and window[0] <= span[1] <= window[1]
        )
        layers["trace.uncovered_s"] = (window[1] - window[0]) - covered
    else:
        layers["trace.uncovered_s"] = (window[1] - window[0]) - sum(r - s for s, r in requests)
    return layers
