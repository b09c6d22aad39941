"""The repository benchmark: ingest (serial, sharded) and HTTP serving.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload

This process is the input generator, the load generator and the
checker.  The program under test runs in processes of its own
(``perfbench/program.py``, importing ``repro`` from the checkout's
``src/``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``perfbench/README.md`` is the catalog of workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import http.client
import json
import math
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import inputs
import program
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("ingest", "ingest-sharded", "serve-static", "serve-live")
#: Shard workers of ingest-sharded (the 2-core host's ``nproc``).
SHARDS = 2
#: About ten checkpoint generations per file-to-checkpoint pass.
GENERATIONS_PER_PASS = 10
#: serve-static starts this many servers per run: set-up is measured
#: on each and the traffic window is split between them.
STATIC_SERVERS = 5
#: Extra cold starts after each untimed ingest* or serve-live pass, each
#: stopped once set up: setup_s is the median of these and the passes'.
SETUP_STARTS = 2
#: Requests the read-after-write probe answers after each ingest pass.
PROBE_REQUESTS = 3000
#: Readiness polls interleaved with serve-live traffic (one per N requests).
POLL_EVERY = 8
#: The Hoeffding check: sampled pairs (every twin, the rest from the
#: traffic pool) and the family-wise failure probability (each pair is
#: held to delta / pairs).
HOEFFDING_PAIRS = 400
HOEFFDING_DELTA = 0.01
#: query_tail_ms is this percentile: the highest one that keeps far
#: more than ten samples beyond it in every run.
TAIL_PERCENTILE = 90
#: Partners per ``/v1/topk`` request.
TOPK_K = 10

#: The bounded metrics of BENCHMARK.json (STEADINESS.md says why only these).
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"))
#: What a user of each workload sees, measured in every run but too
#: unsteady on a shared 2-core host to gate on; reported with the layers.
RUN_LEVEL = (
    ("edges_per_s", "1/s", "higher"),
    ("requests_per_s", "1/s", "higher"),
    ("query_p50_ms", "ms", "lower"),
    ("query_tail_ms", "ms", "lower"),
    ("query_p99_ms", "ms", "lower"),
)
PER_LAYER = RUN_LEVEL + tracing.LAYERS + (("trace.overhead_pct", "%", "lower"),)


class BenchError(Exception):
    """The benchmark cannot run here (no program, a process failed)."""


def passes_for(seconds: float) -> int:
    """Passes per run: one per three seconds of ``--seconds``, at least
    two (set-up is reported as a median over passes)."""
    return max(2, int(seconds / 3))


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@contextlib.contextmanager
def quiet_heap():
    """No garbage-collector pauses in the load generator while it times
    requests: everything built so far is frozen out of the collector's
    scans, and collection is off until the block ends."""
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


# ----------------------------------------------------------------------
# Program processes
# ----------------------------------------------------------------------


class Programs:
    """Starts program processes and makes sure each one has ended."""

    def __init__(self, run_dir: Path) -> None:
        self.run_dir = run_dir
        self.live: List[subprocess.Popen] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC)
        self.env["PYTHONHASHSEED"] = "0"
        self.env[program.WORKER_DIR_ENV] = str(run_dir)
        self.env.pop(program.TRACE_ENV, None)

    def start(self, args: List[str], *, traced: bool = False, stdout=None) -> subprocess.Popen:
        env = dict(self.env)
        if traced:
            env[program.TRACE_ENV] = "1"
        with open(self.run_dir / "program.log", "ab") as log:
            # A session of its own, so a kill reaches the shard workers too.
            process = subprocess.Popen(
                [sys.executable, str(HERE / "program.py")] + args,
                cwd=str(ROOT),
                env=env,
                stdout=stdout if stdout is not None else subprocess.DEVNULL,
                stderr=log,
                start_new_session=True,
            )
        self.live.append(process)
        return process

    def finish(self, process: subprocess.Popen, timeout: float) -> None:
        try:
            code = process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            kill(process)
            raise BenchError("program process %d timed out" % process.pid) from None
        finally:
            self.live.remove(process)
            if process.stdout is not None:
                process.stdout.close()
        if code != 0:
            raise BenchError("program exited with %d:\n%s" % (code, self.log_tail()))

    def run(self, args: List[str], *, traced: bool = False, timeout: float = 120.0) -> float:
        """Run one program process to completion; returns its launch time."""
        launched = time.monotonic()
        self.finish(self.start(args, traced=traced), timeout)
        return launched

    def log_tail(self) -> str:
        path = self.run_dir / "program.log"
        return path.read_text(errors="replace")[-2000:] if path.exists() else ""

    def stop_all(self) -> None:
        for process in list(self.live):
            kill(process)
            if process.stdout is not None:
                process.stdout.close()
            self.live.remove(process)


def kill(process: subprocess.Popen) -> None:
    """Kill a program process and everything in its session; reap it."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()


# ----------------------------------------------------------------------
# Per-seed inputs (made once per seed, untimed)
# ----------------------------------------------------------------------


class Prepared:
    """One seed's stream file, reference checkpoint and per-seed checks."""

    def __init__(self, stream: inputs.Stream, directory: Path, meta: dict) -> None:
        self.stream = stream
        self.directory = directory
        self.meta = meta
        self._engine = None

    @property
    def path(self) -> Path:
        return self.directory / "stream.txt"

    @property
    def reference(self) -> Path:
        return self.directory / "reference"

    @property
    def records(self) -> int:
        return self.stream.records

    @property
    def checkpoint_every(self) -> int:
        return math.ceil(self.records / GENERATIONS_PER_PASS)

    def engine(self):
        """Offline QueryEngine over the reference checkpoint, the
        generation serve-static serves."""
        if self._engine is None:
            from repro import api

            self._engine = api.open_engine(self.reference)
        return self._engine


def prepare(seed: int, programs: Programs) -> Prepared:
    """Write the stream, have the program ingest it serially into the
    reference checkpoint, and run the per-seed checks."""
    stream = inputs.make_stream(seed)
    directory = WORK / "inputs" / ("seed-%d-%s" % (seed, _source_digest()))
    if (directory / "meta.json").exists():
        return Prepared(stream, directory, _read_json(directory / "meta.json"))
    staging = WORK / "inputs" / (".staging-%d-%d" % (seed, os.getpid()))
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    prepared = Prepared(stream, staging, {})
    stream.write(prepared.path)
    report_path = staging / "reference.json"
    programs.run(
        [
            "ingest",
            "--stream", str(prepared.path),
            "--checkpoint-dir", str(prepared.reference),
            "--seed", str(seed),
            "--report", str(report_path),
        ]
    )
    report = _read_json(report_path)
    engine = prepared.engine()
    prepared.meta = {
        "fingerprint": engine.store.fingerprint(),
        "checks": [
            ("reference ingest counts", *_count_check(report["stats"], stream)),
            ("hoeffding jaccard", *_hoeffding_check(stream, engine, seed)),
        ],
    }
    with open(staging / "meta.json", "w", encoding="utf-8") as handle:
        json.dump(prepared.meta, handle)
    try:
        staging.rename(directory)
    except OSError:  # another run prepared this seed first
        shutil.rmtree(staging, ignore_errors=True)
    prepared.directory = directory
    return prepared


def _source_digest() -> str:
    """Digest of the program's and the input generator's sources: a
    cached reference checkpoint is reused only by the code that wrote it."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [HERE / "inputs.py", HERE / "program.py"]:
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _count_check(stats: dict, stream: inputs.Stream) -> Tuple[bool, str]:
    """Dead-letter and repair counts equal the injected hostile lines."""
    got = (
        dict(stats.get("dead_letter_reasons") or {}),
        dict(stats.get("normalized_reasons") or {}),
        stats.get("records_ok"),
        stats.get("offset"),
    )
    want = (stream.dead_lettered, stream.normalized, len(stream.edges), stream.records)
    return got == want, "" if got == want else "got %r, injected %r" % (got, want)


def _hoeffding_check(stream: inputs.Stream, engine, seed: int) -> Tuple[bool, str]:
    """Sampled sketch Jaccard against the exact value, on every twin pair
    (exact J about 0.5 to 1) and a sample of the traffic pool.

    Each pair must lie within the Hoeffding epsilon (docs/THEORY.md:
    P[|J^ - J| >= eps] <= 2 exp(-2 k eps^2)), with the failure
    probability split over the pairs.  The mean absolute error must stay
    under 1 / (2 sqrt(k)), the largest standard deviation a pair's
    estimate has (its variance is J (1 - J) / k).  The twins make both
    bounds bite: an estimator stuck near zero misses each twin by more
    than epsilon."""
    import numpy as np

    from repro.exact.oracle import ExactOracle

    oracle = ExactOracle()
    for u, v in stream.edges:
        oracle.update(u, v)
    pairs = stream.twins + random.Random(seed + 101).sample(
        stream.pairs, HOEFFDING_PAIRS - len(stream.twins)
    )
    estimates = engine.score_many(np.asarray(pairs, dtype=np.int64), "jaccard")
    exact = [oracle.score(u, v, "jaccard") for u, v in pairs]
    k = engine.store.k
    epsilon = math.sqrt(math.log(2.0 * len(pairs) / HOEFFDING_DELTA) / (2.0 * k))
    mae_bound = 1.0 / (2.0 * math.sqrt(k))
    errors = [abs(float(e) - j) for e, j in zip(estimates, exact)]
    misses = sum(error > epsilon for error in errors)
    mae = statistics.fmean(errors)
    detail = "%d pairs (%d twins), largest exact J %.3f, k=%d, eps=%.4f, max error %.4f, " \
        "misses %d, mean error %.4f (bound %.4f)" % (
            len(pairs), len(stream.twins), max(exact), k, epsilon, max(errors),
            misses, mae, mae_bound,
        )
    return misses == 0 and mae <= mae_bound, detail


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def latency_metrics(latencies: List[float]) -> Dict[str, float]:
    if not latencies:
        raise BenchError("no successful requests")
    return {
        "query_p50_ms": 1000.0 * statistics.median(latencies),
        "query_tail_ms": 1000.0 * percentile(latencies, TAIL_PERCENTILE),
        "query_p99_ms": 1000.0 * percentile(latencies, 99),
    }


class Result:
    """What one workload run measured and checked."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.checks: List[Tuple[str, bool, str]] = []
        self.notes: Dict[str, object] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))
        if not ok:
            self.failed += 1

    @property
    def correct(self) -> bool:
        return self.failed == 0


def offline_answer(engine, request) -> list:
    """What a sampled request should have answered, from an offline
    ``QueryEngine``: scores (``score_many``) or ``[vertex, score]`` rows
    (``top_k``)."""
    kind, measure, what = request
    if kind == "topk":
        return [[int(v), float(score)] for v, score in engine.top_k(what, measure, k=TOPK_K)]
    return engine.score_many(what, measure).tolist()


def check_sampled_answers(result: Result, engine, requests, sampled) -> None:
    """Sampled responses equal the offline engine's answers on the same
    generation bit for bit (JSON floats round-trip exactly)."""
    mismatched = sum(offline_answer(engine, requests[index]) != answer for index, answer in sampled)
    kinds = sorted({requests[index][0] for index, _ in sampled})
    result.check(
        "sampled responses bit-identical offline",
        bool(sampled) and mismatched == 0,
        "%d of %d (%s) differ" % (mismatched, len(sampled), ", ".join(kinds)),
    )


def answer_of(payload: bytes) -> Tuple[int, str, list]:
    """``(generation, fingerprint, answer)`` of a ``/v1/score`` or
    ``/v1/topk`` response body, the answer as :func:`offline_answer`."""
    body = json.loads(payload)
    rows = body["results"]
    answer = [[row["v"], row["score"]] for row in rows] if "vertex" in body else [
        row["score"] for row in rows
    ]
    return body["generation"], body["fingerprint"], answer


# ----------------------------------------------------------------------
# Ingest workloads
# ----------------------------------------------------------------------


def ingest_pass(programs, prepared, run_dir: Path, name: str, workers: int, traced: bool,
                seed: int, setup_only: bool = False):
    """One file-to-checkpoint pass in a fresh program process, or with
    ``setup_only`` a cold start that stops once set up."""
    checkpoint_dir = run_dir / ("ck-" + name)
    report_path = run_dir / ("ingest-%s.json" % name)
    launched = programs.run(
        [
            "ingest",
            "--stream", str(prepared.path),
            "--checkpoint-dir", str(checkpoint_dir),
            "--workers", str(workers),
            "--every", str(prepared.checkpoint_every),
            "--seed", str(seed),
            "--report", str(report_path),
        ] + (["--setup-only"] if setup_only else []),
        traced=traced,
    )
    report = _read_json(report_path)
    report["setup_s"] = report["ready"] - launched
    if setup_only:
        return report
    report["wall_s"] = report["done"] - report["ready"]
    report["rss_kb"] = report["vm_hwm_kb"] + sum(w["vm_hwm_kb"] for w in report["workers"])
    report["checkpoint_dir"] = checkpoint_dir
    return report


def read_after_write(programs, prepared, run_dir, checkpoint_dir, requests, result) -> dict:
    """Open the checkpoint a pass wrote, in a program process of its
    own, and answer the score-only mix in-process."""
    report_path = run_dir / "probe.json"
    programs.run(
        [
            "probe",
            "--checkpoint-dir", str(checkpoint_dir),
            "--requests", str(run_dir / "probe-requests.json"),
            "--report", str(report_path),
        ]
    )
    report = _read_json(report_path)
    result.attempted += len(requests)
    result.check(
        "checkpoint fingerprint equals the reference",
        report["fingerprint"] == prepared.meta["fingerprint"],
        report["fingerprint"][:16],
    )
    sampled = [(int(index), scores) for index, scores in report["sampled"].items()]
    check_sampled_answers(result, prepared.engine(), requests, sampled)
    return {"latencies": report["latencies"], "seconds": report["finished"] - report["opened"]}


def run_ingest(workload: str, prepared: Prepared, seconds: float, trace: bool, seed: int,
               programs: Programs, run_dir: Path) -> Result:
    """File-to-checkpoint passes, each followed by the read-after-write
    probe on the checkpoint it wrote; ``trace`` adds one traced pass."""
    result = Result(workload)
    workers = SHARDS if workload == "ingest-sharded" else 1
    requests = inputs.traffic(prepared.stream, inputs.MIX_SCORE, PROBE_REQUESTS, seed)
    with open(run_dir / "probe-requests.json", "w", encoding="utf-8") as handle:
        json.dump([[measure, pairs] for _, measure, pairs in requests], handle)
    passes, probes, setups = [], [], []
    for number in range(passes_for(seconds) + trace):
        traced = number == passes_for(seconds)
        report = ingest_pass(programs, prepared, run_dir, str(number), workers, traced, seed)
        result.attempted += 1
        result.check("dead-letter and repair counts", *_count_check(report["stats"], prepared.stream))
        result.check(
            "a report from every shard worker",
            len(report["workers"]) == (workers if workers > 1 else 0),
            "%d reports" % len(report["workers"]),
        )
        # Serial ingest writes exactly GENERATIONS_PER_PASS generations;
        # shards checkpoint on their own share of the records.
        written = report["stats"]["checkpoints_written"]
        result.check(
            "checkpoint generations written",
            written == GENERATIONS_PER_PASS if workers == 1 else written >= workers,
            "%s written" % written,
        )
        if traced:
            layers = tracing.ingest_layers(report)
            untraced = statistics.median(p["wall_s"] for p in passes)
            layers["trace.overhead_pct"] = 100.0 * (report["wall_s"] / untraced - 1.0)
            result.metrics.update(layers)
        else:
            passes.append(report)
            probes.append(read_after_write(
                programs, prepared, run_dir, report["checkpoint_dir"], requests, result))
            setups.append(report["setup_s"])
            for start in range(SETUP_STARTS):
                setups.append(ingest_pass(
                    programs, prepared, run_dir, "%d-setup-%d" % (number, start), workers,
                    False, seed, setup_only=True,
                )["setup_s"])
        shutil.rmtree(report["checkpoint_dir"], ignore_errors=True)
    latencies = [latency for probe in probes for latency in probe["latencies"]]
    result.metrics.update(latency_metrics(latencies))
    result.metrics.update({
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024.0,
        "edges_per_s": statistics.median(prepared.records / p["wall_s"] for p in passes),
        "requests_per_s": len(latencies) / sum(probe["seconds"] for probe in probes),
    })
    result.notes["pass_edges_per_s"] = [round(prepared.records / p["wall_s"]) for p in passes]
    return result


# ----------------------------------------------------------------------
# The HTTP client and the server process
# ----------------------------------------------------------------------


class Client:
    """One keep-alive connection; the next request leaves only after the
    previous response has been read in full."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def request(self, method: str, path: str, body: Optional[bytes] = None):
        """``(status, response, payload, sent, received)``; status is
        ``None`` when the connection failed."""
        headers = {"Content-Type": "application/json"} if body is not None else {}
        sent = time.monotonic()
        try:
            self.connection.request(method, path, body=body, headers=headers)
            response = self.connection.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException):
            self.connection.close()
            self.connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
            return None, None, b"", sent, time.monotonic()
        return response.status, response, payload, sent, time.monotonic()

    def get_json(self, path: str):
        status, _, payload, _, received = self.request("GET", path)
        return status, (json.loads(payload) if status is not None else None), received

    def close(self) -> None:
        self.connection.close()


def encode(request) -> Tuple[str, str, Optional[bytes]]:
    kind, measure, what = request
    if kind == "topk":
        return "GET", "/v1/topk/%d?k=%d&measure=%s" % (what, TOPK_K, measure), None
    return "POST", "/v1/score", json.dumps({"pairs": what, "measure": measure}).encode()


class Server:
    """One program server process, announced and connected."""

    def __init__(self, programs: Programs, args: List[str], *, traced: bool, report: Path) -> None:
        self.programs = programs
        self.report_path = report
        self.launched = time.monotonic()
        self.process = programs.start(
            ["serve"] + args + ["--report", str(report)], traced=traced, stdout=subprocess.PIPE
        )
        readable, _, _ = select.select([self.process.stdout], [], [], 120.0)
        words = self.process.stdout.readline().decode().split() if readable else []
        if len(words) != 3 or words[0] != "serving" or not words[1].startswith("http://"):
            kill(self.process)
            raise BenchError("server did not announce itself:\n" + programs.log_tail())
        #: When the server became ready, stamped by the server itself.
        self.ready = float(words[2])
        self.client = Client(int(words[1].rsplit(":", 1)[1]))

    def wait_ready(self, timeout: float = 120.0) -> float:
        """Poll ``/v1/readyz``; returns when it first answered 200."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, _, received = self.client.get_json("/v1/readyz")
            if status == 200:
                return received
            time.sleep(0.005)
        raise BenchError("server never became ready")

    def coalesced(self) -> float:
        _, snapshot, _ = self.client.get_json("/v1/metrics?format=json")
        for instrument in snapshot["instruments"]:
            if instrument["name"] == "serve_coalesced_requests_total":
                return float(sum(series["value"] for series in instrument["series"]))
        return 0.0

    def stop(self) -> dict:
        """SIGTERM (graceful drain), wait, and read the server's report."""
        self.client.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        self.programs.finish(self.process, 60.0)
        return _read_json(self.report_path)


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------


def run_serve_static(prepared: Prepared, seconds: float, trace: bool, seed: int,
                     programs: Programs, run_dir: Path) -> Result:
    """STATIC_SERVERS cold starts from the reference checkpoint, each
    serving a share of the traffic window; ``trace`` adds one traced
    server with the same share."""
    result = Result("serve-static")
    requests = inputs.traffic(prepared.stream, inputs.MIX_STATIC, 20_000, seed)
    encoded = [encode(request) for request in requests]
    warm_up = [
        encode(("topk", "jaccard", prepared.stream.hubs[0])),
        encode(("score16", "jaccard", prepared.stream.pairs[:16])),
        encode(("score256", "adamic_adar", prepared.stream.pairs[:256])),
    ]
    phases = []
    cursor = 0
    generations = set()
    sampled: List[Tuple[int, bytes]] = []
    for number in range(STATIC_SERVERS + trace):
        traced = number == STATIC_SERVERS
        server = Server(
            programs,
            ["--checkpoint-dir", str(prepared.reference)],
            traced=traced,
            report=run_dir / ("server-%d.json" % number),
        )
        phase = {"requests": []}
        try:
            server.wait_ready()
            # Warm-up fills the lazy caches: the LSH index (top-k) and
            # the per-measure witness weights.
            for request in warm_up:
                if server.client.request(*request)[0] != 200:
                    raise BenchError("warm-up request failed")
            phase["setup_s"] = time.monotonic() - server.launched
            with quiet_heap():
                started = time.monotonic()
                deadline = started + seconds / STATIC_SERVERS
                while time.monotonic() < deadline:
                    index = cursor % len(encoded)
                    cursor += 1
                    status, response, payload, sent, received = server.client.request(*encoded[index])
                    result.attempted += 1
                    if status != 200:
                        result.failed += 1
                        continue
                    generations.add((response.getheader("X-Repro-Generation"),
                                     response.getheader("X-Repro-Fingerprint")))
                    if cursor % program.SAMPLE_EVERY == 0:
                        sampled.append((index, payload))
                    phase["requests"].append((sent, received))
                phase["window"] = (started, time.monotonic())
            phase["coalesced"] = server.coalesced()
        finally:
            report = server.stop()
        phase["rss_kb"] = report["vm_hwm_kb"]
        if traced:
            layers = tracing.serve_layers(report["trace"], phase["requests"], phase["window"], False)
            layers["serve.server.coalesced_requests"] = phase["coalesced"]
            result.metrics.update(layers)
            traced_rate = len(phase["requests"]) / (phase["window"][1] - phase["window"][0])
        else:
            phases.append(phase)
    result.check(
        "one generation, the reference fingerprint",
        generations == {("1", prepared.meta["fingerprint"])},
        repr(sorted(generations))[:200],
    )
    check_sampled_answers(
        result, prepared.engine(), requests,
        [(index, answer_of(payload)[2]) for index, payload in sampled],
    )
    traffic_time = sum(phase["window"][1] - phase["window"][0] for phase in phases)
    latencies = [r - s for phase in phases for s, r in phase["requests"]]
    result.metrics.update(latency_metrics(latencies))
    result.metrics.update({
        "setup_s": statistics.median(phase["setup_s"] for phase in phases),
        "peak_rss_mb": statistics.median(phase["rss_kb"] for phase in phases) / 1024.0,
        "requests_per_s": len(latencies) / traffic_time,
    })
    if trace:
        result.metrics["trace.overhead_pct"] = 100.0 * (
            result.metrics["requests_per_s"] / traced_rate - 1.0
        )
    return result


def live_server(programs, prepared, run_dir, name: str, traced: bool, seed: int) -> Server:
    return Server(
        programs,
        ["--stream", str(prepared.path), "--seed", str(seed)],
        traced=traced,
        report=run_dir / ("live-%s.json" % name),
    )


def live_setup(programs, prepared, run_dir, name: str, seed: int) -> float:
    """A live server's set-up time; the server is stopped once ready."""
    server = live_server(programs, prepared, run_dir, name, False, seed)
    try:
        # A /v1/readyz answer also means the SIGTERM handler is in place.
        server.wait_ready()
        return server.ready - server.launched
    finally:
        server.stop()


def live_pass(programs, prepared, run_dir, number: int, traced: bool, seed: int,
              encoded, cursor: int) -> dict:
    """One live server: score until the generation covering the last
    record is published, then read its ingest stats and stop it."""
    server = live_server(programs, prepared, run_dir, str(number), traced, seed)
    run = {"requests": [], "offsets": {}, "fingerprints": {}, "sampled": [],
           "attempted": 0, "failed": 0}
    try:
        started = server.wait_ready()
        ready = server.ready
        final = None
        with quiet_heap():
            while final is None:
                if time.monotonic() - ready > 150:
                    raise BenchError("live ingest never published the last record")
                index = cursor % len(encoded)
                cursor += 1
                status, response, payload, sent, received = server.client.request(*encoded[index])
                run["attempted"] += 1
                if status != 200:
                    run["failed"] += 1
                else:
                    run["fingerprints"].setdefault(
                        response.getheader("X-Repro-Generation"), set()
                    ).add(response.getheader("X-Repro-Fingerprint"))
                    run["requests"].append((sent, received))
                    if cursor % program.SAMPLE_EVERY == 0:
                        run["sampled"].append((index, payload))
                if cursor % POLL_EVERY == 0:
                    status, body, polled = server.client.get_json("/v1/readyz")
                    if status != 200:
                        run["attempted"] += 1
                        run["failed"] += 1
                        continue
                    run["offsets"][body["generation"]] = body["generation_offset"]
                    if body["generation_offset"] == prepared.records:
                        # When the server published it, on the shared clock.
                        final = polled - body["generation_age_seconds"]
            traffic_end = time.monotonic()
        _, health, _ = server.client.get_json("/v1/healthz")
        status, _, payload, _, _ = server.client.request(*encoded[0])
    finally:
        report = server.stop()
    run.update({
        "cursor": cursor,
        "setup_s": ready - server.launched,
        "window": (ready, final),
        "ingest_s": final - ready,
        "traffic_s": traffic_end - started,
        "rss_kb": report["vm_hwm_kb"],
        "trace": report["trace"],
        "ingest_stats": health.get("ingest", {}),
        "final_fingerprint": answer_of(payload)[1] if status == 200 else None,
    })
    return run


def run_serve_live(prepared: Prepared, seconds: float, trace: bool, seed: int,
                   programs: Programs, run_dir: Path) -> Result:
    result = Result("serve-live")
    requests = inputs.traffic(prepared.stream, inputs.MIX_SCORE, 8_000, seed)
    encoded = [encode(request) for request in requests]
    passes, setups = [], []
    cursor = 0
    for number in range(passes_for(seconds) + trace):
        traced = number == passes_for(seconds)
        run = live_pass(programs, prepared, run_dir, number, traced, seed, encoded, cursor)
        cursor = run["cursor"]
        result.attempted += run["attempted"]
        result.failed += run["failed"]
        torn = {g: sorted(f) for g, f in run["fingerprints"].items() if len(f) != 1}
        result.check("no torn reads (one fingerprint per generation)", not torn, repr(torn)[:200])
        result.check(
            "last generation is the reference fingerprint",
            run["final_fingerprint"] == prepared.meta["fingerprint"],
            str(run["final_fingerprint"])[:16],
        )
        result.check("dead-letter and repair counts", *_count_check(run["ingest_stats"], prepared.stream))
        if traced:
            layers = tracing.serve_layers(run["trace"], run["requests"], run["window"], True)
            untraced = statistics.median(p["ingest_s"] for p in passes)
            layers["trace.overhead_pct"] = 100.0 * (run["ingest_s"] / untraced - 1.0)
            result.metrics.update(layers)
        else:
            passes.append(run)
            setups.append(run["setup_s"])
            for start in range(SETUP_STARTS):
                setups.append(live_setup(programs, prepared, run_dir, "%d-setup-%d" % (number, start), seed))
    check_live_samples(passes, prepared, requests, seed, result)
    latencies = [r - s for run in passes for s, r in run["requests"]]
    result.metrics.update(latency_metrics(latencies))
    result.metrics.update({
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(run["rss_kb"] for run in passes) / 1024.0,
        "edges_per_s": statistics.median(prepared.records / run["ingest_s"] for run in passes),
        "requests_per_s": len(latencies) / sum(run["traffic_s"] for run in passes),
    })
    result.notes["pass_edges_per_s"] = [round(prepared.records / run["ingest_s"]) for run in passes]
    return result


def check_live_samples(passes: List[dict], prepared: Prepared, requests, seed: int,
                       result: Result) -> None:
    """Score every pass's sampled live responses again offline, on the
    generation that answered them.  A generation's offset is known from
    the ``/v1/readyz`` polls; one serial ``repro.api.ingest`` of the
    file, advanced leg by leg through the sampled offsets, rebuilds
    each of those generations."""
    from repro import api
    from repro.core.config import SketchConfig
    from repro.serve.engine import QueryEngine

    sampled = []  # (offset or None, fingerprint, request index, answer)
    for run in passes:
        for index, payload in run["sampled"]:
            generation, fingerprint, answer = answer_of(payload)
            sampled.append((run["offsets"].get(generation), fingerprint, index, answer))
    offsets = sorted({offset for offset, *_ in sampled if offset is not None})
    engines = {}
    report = api.ingest(
        str(prepared.path),
        config=SketchConfig(k=program.K, seed=seed),
        policies=program.POLICIES,
        batch_size=program.BATCH_SIZE,
        max_records=0,
    )
    for offset in offsets:
        if offset == prepared.records:
            engine = prepared.engine()
        else:
            report.runner.run(max_records=offset - report.runner.offset)
            engine = QueryEngine(report.runner.predictor)
        engines[offset] = (engine.store.fingerprint(), engine)
    checked = mismatched = 0
    for offset, fingerprint, index, answer in sampled:
        if offset is None:
            continue
        expected, engine = engines[offset]
        checked += 1
        mismatched += expected != fingerprint or offline_answer(engine, requests[index]) != answer
    result.check(
        "sampled live responses bit-identical offline",
        checked > 0 and mismatched == 0,
        "%d of %d checked on %d generations, %d differ" % (
            checked, len(sampled), len(engines), mismatched,
        ),
    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def host_info(path: Path) -> Dict[str, object]:
    """``nproc`` and the filesystem holding the checkpoint directories."""
    best, fstype = "", "unknown"
    with open("/proc/mounts", encoding="utf-8") as handle:
        for line in handle:
            mount, kind = line.split()[1:3]
            if str(path).startswith(mount) and len(mount) > len(best):
                best, fstype = mount, kind
    return {"nproc": len(os.sched_getaffinity(0)), "checkpoint_fs": fstype}


RUNNERS = {
    "ingest": lambda *args: run_ingest("ingest", *args),
    "ingest-sharded": lambda *args: run_ingest("ingest-sharded", *args),
    "serve-static": run_serve_static,
    "serve-live": run_serve_live,
}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Result:
    run_dir = WORK / ("run-%d" % os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    programs = Programs(run_dir)
    try:
        prepared = prepare(seed, programs)
        result = RUNNERS[workload](prepared, seconds, trace, seed, programs, run_dir)
        for name, ok, detail in prepared.meta["checks"]:
            result.check(name, ok, detail)
        result.notes.update(host_info(run_dir))
        return result
    finally:
        programs.stop_all()
        shutil.rmtree(run_dir, ignore_errors=True)


def print_result(result: Result) -> None:
    print("== %s" % result.workload)
    for name, ok, detail in result.checks:
        print("  check %-48s %s %s" % (name, "PASS" if ok else "FAIL", detail))
    for name, unit in END_TO_END + tuple(entry[:2] for entry in PER_LAYER):
        if name in result.metrics:
            print("  %-36s %14.6g %s" % (name, result.metrics[name], unit))
    print("  host %s" % json.dumps(result.notes, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("error: no program to measure: %s/repro is missing" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print("error: imported repro from %s, not this checkout" % repro.__file__, file=sys.stderr)
        return 2
    # Program processes run in sessions of their own: on SIGTERM, unwind
    # through the cleanup that kills them instead of orphaning them.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            print_result(result)
            results.append(result)
    except BenchError as error:
        print("error: %s" % error, file=sys.stderr)
        return 1
    units = [entry[:2] for entry in PER_LAYER] if args.trace else list(END_TO_END)
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result.workload + "/"
        for name, unit in units:
            metrics[prefix + name] = {"value": float(result.metrics.get(name, 0.0)), "unit": unit}
    summary = {
        "correct": all(result.correct for result in results),
        "attempted": sum(result.attempted for result in results),
        "failed": sum(result.failed for result in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
