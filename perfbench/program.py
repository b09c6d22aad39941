"""The program under test, in a process of its own.

The harness (``run.py``) generates inputs and traffic in its
own process and starts this script for every program process, with
``PYTHONPATH`` pointing at the checkout's ``src/``.  Everything here
goes through the public surface: :func:`repro.api.ingest`,
:func:`repro.api.open_engine` and :func:`repro.api.serve`.

Subcommands:

``ingest``  one file-to-checkpoint pass (serial, or sharded with
            ``--workers``); writes a JSON report.  ``--setup-only``
            stops where the pass would call ``repro.api.ingest``.
``probe``   open the checkpoint a pass wrote and answer a request list
            in-process (the read-after-write query probe).
``serve``   the HTTP server, static (``--checkpoint-dir``) or live
            (``--stream``); prints ``serving <url> <ready time>`` once
            ready and writes its report after the SIGTERM drain.

Each report carries the process's ``VmHWM`` and, when the environment
sets ``PERFBENCH_TRACE=1``, the spans recorded by :mod:`tracing`.  Shard
workers write their own report into ``$PERFBENCH_WORKER_DIR`` (see
:func:`_shard_worker`).
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import os
import sys
import time

import tracing as spans

TRACER = spans.Tracer()
#: Set in the environment so forked or spawned shard workers inherit it.
WORKER_DIR_ENV = "PERFBENCH_WORKER_DIR"
TRACE_ENV = "PERFBENCH_TRACE"

#: Sketch and ingest settings shared by every workload.
K = 64
BATCH_SIZE = 4096
POLICIES = "normalize"
#: serve-live's fixed hot-swap cadence, seconds.
REFRESH_EVERY = 0.5
#: One answer in this many is kept, to be scored again offline.
SAMPLE_EVERY = 25


def vm_hwm_kb() -> int:
    """Peak resident set size of this process, from ``/proc``."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _write(path: str, payload: dict) -> None:
    temporary = path + ".tmp"
    with open(temporary, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(temporary, path)


def _shard_worker(*args, **kwargs):
    """Shard worker entry: the program's own, plus a report at exit.

    Stands in for ``repro.parallel.runner.shard_worker_main`` so every
    worker writes its peak RSS, CPU seconds, entry time and (traced)
    spans to ``$PERFBENCH_WORKER_DIR``.
    """
    from repro.parallel import worker

    entered = time.monotonic()
    traced = os.environ.get(TRACE_ENV) == "1"
    if traced:
        TRACER.reset()
        spans.install(TRACER)
    started = time.monotonic()
    try:
        worker.shard_worker_main(*args, **kwargs)
    finally:
        report = {
            "shard": args[0],
            "entered": entered,
            "wall_s": time.monotonic() - started,
            "cpu_s": time.process_time(),
            "vm_hwm_kb": vm_hwm_kb(),
        }
        if traced:
            report["trace"] = TRACER.dump()
        directory = os.environ[WORKER_DIR_ENV]
        _write(os.path.join(directory, "worker-%d-%d.json" % (args[0], os.getpid())), report)


def cmd_ingest(args) -> int:
    from repro import api
    from repro.core.config import SketchConfig
    from repro.parallel import runner as parallel_runner

    traced = os.environ.get(TRACE_ENV) == "1"
    if traced:
        spans.install(TRACER)
    parallel_runner.shard_worker_main = _shard_worker
    config = SketchConfig(k=K, seed=args.seed)
    ready = time.monotonic()
    if args.setup_only:
        _write(args.report, {"ready": ready})
        return 0
    root = TRACER.open("api.ingest")
    report = api.ingest(
        args.stream,
        config=config,
        workers=args.workers,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.every,
        policies=POLICIES,
        batch_size=BATCH_SIZE,
    )
    TRACER.close(root)
    done = time.monotonic()
    stats = report.stats
    workers = []
    for path in sorted(glob.glob(os.path.join(os.environ[WORKER_DIR_ENV], "worker-*.json"))):
        with open(path, encoding="utf-8") as handle:
            workers.append(json.load(handle))
        os.unlink(path)
    _write(
        args.report,
        {
            "ready": ready,
            "done": done,
            "vm_hwm_kb": vm_hwm_kb(),
            "stats": {
                key: stats.get(key)
                for key in (
                    "offset",
                    "records_ok",
                    "dead_letter_reasons",
                    "normalized_reasons",
                    "checkpoints_written",
                    "shard_records",
                    "merge_seconds",
                    "source_exhausted",
                )
            },
            "workers": workers,
            "trace": TRACER.dump() if traced else None,
        },
    )
    return 0


def cmd_probe(args) -> int:
    """Read-after-write: open the fresh checkpoint, answer the requests."""
    import numpy as np

    from repro import api

    with open(args.requests, encoding="utf-8") as handle:
        requests = json.load(handle)
    batches = [(measure, np.asarray(pairs, dtype=np.int64)) for measure, pairs in requests]
    del requests
    # The request list is benchmark input, not program state: keep it
    # out of the collector's scans.
    gc.collect()
    gc.freeze()
    engine = api.open_engine(args.checkpoint_dir)
    opened = time.monotonic()
    latencies = []
    sampled = {}
    clock = time.monotonic
    for index, (measure, pairs) in enumerate(batches):
        started = clock()
        scores = engine.score_many(pairs, measure)
        latencies.append(clock() - started)
        if index % SAMPLE_EVERY == 0:
            sampled[index] = scores.tolist()
    finished = clock()
    _write(
        args.report,
        {
            "opened": opened,
            "finished": finished,
            "fingerprint": engine.store.fingerprint(),
            "latencies": latencies,
            "sampled": sampled,
            "vm_hwm_kb": vm_hwm_kb(),
        },
    )
    return 0


def cmd_serve(args) -> int:
    from repro import api
    from repro.core.config import SketchConfig

    traced = os.environ.get(TRACE_ENV) == "1"
    if traced:
        spans.install(TRACER)

    def announce(url: str) -> None:
        # The server calls this once it is ready; the stamp is on the
        # CLOCK_MONOTONIC clock the harness shares.
        print("serving", url, time.monotonic(), flush=True)

    if args.checkpoint_dir:
        server = api.serve(args.checkpoint_dir, port=0, announce=announce)
    else:
        server = api.serve(
            source=args.stream,
            config=SketchConfig(k=K, seed=args.seed),
            port=0,
            refresh_every=REFRESH_EVERY,
            policies=POLICIES,
            batch_size=BATCH_SIZE,
            announce=announce,
        )
    code = server.run()
    _write(
        args.report,
        {"vm_hwm_kb": vm_hwm_kb(), "trace": TRACER.dump() if traced else None},
    )
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    ingest = commands.add_parser("ingest")
    ingest.add_argument("--stream", required=True)
    ingest.add_argument("--checkpoint-dir", required=True)
    ingest.add_argument("--workers", type=int, default=1)
    ingest.add_argument("--every", type=int, default=0)
    ingest.add_argument("--seed", type=int, default=0)
    ingest.add_argument("--report", required=True)
    ingest.add_argument("--setup-only", action="store_true")
    probe = commands.add_parser("probe")
    probe.add_argument("--checkpoint-dir", required=True)
    probe.add_argument("--requests", required=True)
    probe.add_argument("--report", required=True)
    serve = commands.add_parser("serve")
    serve.add_argument("--checkpoint-dir")
    serve.add_argument("--stream")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--report", required=True)
    args = parser.parse_args(argv)
    return {"ingest": cmd_ingest, "probe": cmd_probe, "serve": cmd_serve}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
