"""The serving tier: endpoints, hot-swap atomicity, drain, batching.

The hot-swap and drain suites are the PR's load-bearing tests: N
reader threads hammer ``/score`` across ≥3 live ``refresh()`` swaps
and assert no response ever mixes generations (a generation number
must map to exactly one pack fingerprint, and the headers must agree
with the body), and a drain must not return while a request is still
in flight.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time

import numpy as np
import pytest

from repro.core.config import SketchConfig
from repro.core.predictor import MinHashLinkPredictor
from repro.errors import ConfigurationError
from repro.serve.engine import QueryEngine
from repro.serve.server import Generation, SketchServer, _ScoreBatcher
from repro.stream.runner import StreamRunner
from repro.stream.sources import FileEdgeSource


def warm_predictor(edges=500, vertices=50, seed=3, k=16):
    predictor = MinHashLinkPredictor(
        SketchConfig(k=k, seed=seed, track_witnesses=True)
    )
    rng = np.random.default_rng(seed)
    for u, v in rng.integers(0, vertices, size=(edges, 2)).tolist():
        if u != v:
            predictor.update(u, v)
    return predictor


class ServerHarness:
    """A SketchServer on a background thread with an HTTP helper."""

    def __init__(self, server: SketchServer) -> None:
        self.server = server
        self.thread = threading.Thread(
            target=lambda: server.run(install_signals=False), daemon=True
        )
        self.thread.start()
        assert server.wait_ready(10), "server never became ready"

    def request(self, method, path, body=None, headers=None):
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.server.port, timeout=10
        )
        try:
            connection.request(method, path, body=body, headers=headers or {})
            response = connection.getresponse()
            payload = response.read()
            return response.status, dict(response.getheaders()), payload
        finally:
            connection.close()

    def get_json(self, path):
        status, headers, payload = self.request("GET", path)
        return status, headers, json.loads(payload)

    def score(self, pairs, measure="jaccard", query=""):
        status, headers, payload = self.request(
            "POST",
            f"/score{query}",
            body=json.dumps({"pairs": pairs, "measure": measure}),
            headers={"Content-Type": "application/json"},
        )
        return status, headers, json.loads(payload)

    def shutdown(self):
        self.server.request_shutdown()
        assert self.server.wait_finished(15), "drain hung"
        self.thread.join(timeout=5)


@pytest.fixture()
def harness():
    harness = ServerHarness(SketchServer(warm_predictor(), port=0, keep_history=4))
    yield harness
    harness.shutdown()


class TestScoreEndpoint:
    def test_scores_bit_identical_to_engine(self, harness):
        pairs = [[1, 2], [3, 4], [1, 49], [7, 7]]
        status, _, body = harness.score(pairs, "adamic_adar")
        assert status == 200
        engine = QueryEngine(harness.server.predictor)
        expected = engine.score_many(np.asarray(pairs), "adamic_adar")
        assert [row["score"] for row in body["results"]] == expected.tolist()
        assert [[row["u"], row["v"]] for row in body["results"]] == pairs

    def test_response_carries_generation_and_fingerprint(self, harness):
        status, headers, body = harness.score([[1, 2]])
        generation = harness.server.generation
        assert status == 200
        assert body["generation"] == generation.number
        assert body["fingerprint"] == generation.fingerprint
        assert headers["X-Repro-Generation"] == str(generation.number)
        assert headers["X-Repro-Fingerprint"] == generation.fingerprint

    def test_measure_from_query_string(self, harness):
        status, _, payload = harness.request(
            "POST", "/score?measure=common_neighbors",
            body=json.dumps({"pairs": [[1, 2]]}),
        )
        assert status == 200
        assert json.loads(payload)["measure"] == "common_neighbors"

    def test_text_pair_body_matches_cli_format(self, harness):
        status, _, payload = harness.request(
            "POST", "/score", body="# comment\n1 2\n\n3 4\n"
        )
        assert status == 200
        body = json.loads(payload)
        assert [[row["u"], row["v"]] for row in body["results"]] == [[1, 2], [3, 4]]

    def test_csv_format(self, harness):
        status, _, payload = harness.request(
            "POST", "/score?format=csv", body=json.dumps({"pairs": [[1, 2]]})
        )
        lines = payload.decode().splitlines()
        assert status == 200
        assert lines[0] == "u,v,jaccard"
        u, v, score = lines[1].split(",")
        assert (u, v) == ("1", "2")
        # repr round-trip: the CSV float is bit-exact.
        engine = QueryEngine(harness.server.predictor)
        assert float(score) == engine.score_many([(1, 2)], "jaccard")[0]

    def test_empty_batch(self, harness):
        status, _, body = harness.score([])
        assert status == 200
        assert body["results"] == []

    def test_unknown_measure_is_400(self, harness):
        status, _, body = harness.score([[1, 2]], "nope")
        assert status == 400
        assert "unknown measure" in body["error"]

    def test_malformed_json_is_400(self, harness):
        status, _, payload = harness.request(
            "POST", "/score", body="{not json", headers={"Content-Type": "application/json"}
        )
        assert status == 400

    def test_bad_pair_shape_is_400(self, harness):
        status, _, body = harness.score([[1, 2, 3]])
        assert status == 400
        assert "pairs" in body["error"]

    def test_bad_text_line_is_400_with_line_number(self, harness):
        status, _, payload = harness.request("POST", "/score", body="1 2\n1 x\n")
        assert status == 400
        error = json.loads(payload)["error"]
        assert error.startswith("pair line 2: vertex v: non-integer id 'x'")
        assert error.count("line 2") == 1

    def test_text_delete_line_is_400(self, harness):
        status, _, payload = harness.request("POST", "/score", body="# c\n- 1 2\n")
        assert status == 400
        assert json.loads(payload)["error"].startswith("pair line 2: op: 'delete'")

    @pytest.mark.parametrize(
        "pairs,index",
        [
            ([[1.9, 2]], 0),
            ([[1, 2], [True, 3]], 1),
            ([[1, 2], [3, False]], 1),
            ([["1", "3"]], 0),
            ([[-1, 2]], 0),
            ([[1, 2], [3, 2**63]], 1),
            ([[2.0, 3]], 0),
            ([[1, 2], [3]], 1),
            ([[1, 2], 7], 1),
        ],
    )
    def test_json_ids_must_be_json_integers(self, harness, pairs, index):
        status, _, body = harness.score(pairs)
        assert status == 400
        assert body["error"].startswith(f"pairs[{index}]: ")
        assert "integer ids in [0, 9223372036854775807]" in body["error"]

    def test_json_ids_up_to_the_int64_limit_score(self, harness):
        status, _, body = harness.score([[0, 2**63 - 1]])
        assert status == 200
        assert body["results"][0]["v"] == 2**63 - 1

    def test_oversized_batch_is_413(self, harness):
        harness.server.max_request_pairs = 4
        try:
            status, _, body = harness.score([[1, 2]] * 5)
        finally:
            harness.server.max_request_pairs = 100_000
        assert status == 413
        assert "limit" in body["error"]

    def test_get_score_is_405(self, harness):
        status, _, _ = harness.request("GET", "/score")
        assert status == 405


class TestOtherEndpoints:
    def test_topk_matches_engine(self, harness):
        status, headers, body = harness.get_json("/topk/1?measure=jaccard&k=5")
        assert status == 200
        engine = QueryEngine(harness.server.predictor)
        expected = [
            {"v": int(v), "score": float(s)}
            for v, s in engine.top_k(1, "jaccard", k=5)
        ]
        assert body["results"] == expected
        assert headers["X-Repro-Fingerprint"] == body["fingerprint"]

    def test_topk_unseen_vertex_is_empty(self, harness):
        status, _, body = harness.get_json("/topk/99999")
        assert status == 200
        assert body["results"] == []

    def test_topk_bad_vertex_is_400(self, harness):
        status, _, body = harness.get_json("/topk/abc")
        assert status == 400

    def test_healthz(self, harness):
        status, _, body = harness.get_json("/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["generation"] == 1
        assert body["engine"]["vertices"] == harness.server.predictor.vertex_count

    def test_readyz(self, harness):
        status, _, body = harness.get_json("/readyz")
        assert status == 200
        assert body["ready"] is True
        assert body["generation_age_seconds"] >= 0

    def test_metrics_prometheus(self, harness):
        harness.score([[1, 2]])
        status, _, payload = harness.request("GET", "/metrics")
        text = payload.decode()
        assert status == 200
        assert "# TYPE http_requests_total counter" in text
        assert "serve_generation 1" in text
        assert 'http_requests_total{endpoint="score",code="200"}' in text

    def test_metrics_json_snapshot(self, harness):
        status, _, payload = harness.request(
            "GET", "/metrics", headers={"Accept": "application/json"}
        )
        body = json.loads(payload)
        assert status == 200
        assert body["schema"] == "repro.obs/v1"
        assert any(i["name"] == "http_requests_total" for i in body["instruments"])

    def test_unknown_route_is_404(self, harness):
        status, _, _ = harness.request("GET", "/nope")
        assert status == 404

    def test_keep_alive_reuses_connection(self, harness):
        connection = http.client.HTTPConnection(
            "127.0.0.1", harness.server.port, timeout=10
        )
        try:
            for _ in range(3):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                assert response.status == 200
        finally:
            connection.close()


class TestConstruction:
    def test_needs_exactly_one_of_predictor_or_runner(self, tmp_path):
        with pytest.raises(ConfigurationError):
            SketchServer()
        feed = tmp_path / "f.txt"
        feed.write_text("1 2\n")
        runner = StreamRunner(FileEdgeSource(feed), config=SketchConfig(k=8))
        with pytest.raises(ConfigurationError):
            SketchServer(warm_predictor(50), runner=runner)

    def test_negative_cadences_rejected(self):
        with pytest.raises(ConfigurationError):
            SketchServer(warm_predictor(50), refresh_every=-1)
        with pytest.raises(ConfigurationError):
            SketchServer(warm_predictor(50), drain_timeout=-1)
        with pytest.raises(ConfigurationError):
            SketchServer(warm_predictor(50), max_batch_pairs=0)


class TestHotSwapAtomicity:
    """Satellite 4, first half: concurrent readers across >=3 swaps
    never observe a mixed generation."""

    def test_concurrent_readers_never_see_torn_generation(self):
        predictor = warm_predictor(300)
        server = SketchServer(predictor, port=0, keep_history=16)
        harness = ServerHarness(server)
        try:
            ledger: dict = {}
            ledger_lock = threading.Lock()
            problems: list = []
            stop = threading.Event()

            def reader(seed):
                rng = np.random.default_rng(seed)
                while not stop.is_set():
                    pairs = rng.integers(0, 60, size=(4, 2)).tolist()
                    status, headers, body = harness.score(pairs)
                    if status != 200:
                        problems.append(f"status {status}")
                        continue
                    generation = body["generation"]
                    fingerprint = body["fingerprint"]
                    if headers["X-Repro-Generation"] != str(generation):
                        problems.append("header/body generation mismatch")
                    if headers["X-Repro-Fingerprint"] != fingerprint:
                        problems.append("header/body fingerprint mismatch")
                    with ledger_lock:
                        known = ledger.setdefault(generation, fingerprint)
                    if known != fingerprint:
                        problems.append(
                            f"TORN: generation {generation} seen with two fingerprints"
                        )

            readers = [
                threading.Thread(target=reader, args=(i,), daemon=True)
                for i in range(4)
            ]
            for thread in readers:
                thread.start()
            # >=3 live swaps while the readers hammer /score.  Each
            # swap really changes the pack (new edges), so all
            # fingerprints are distinct.
            rng = np.random.default_rng(99)
            for _ in range(4):
                time.sleep(0.05)
                for u, v in rng.integers(0, 60, size=(50, 2)).tolist():
                    if u != v:
                        predictor.update(u, v)
                server.refresh()  # static predictor: publish is safe anywhere
            time.sleep(0.1)
            stop.set()
            for thread in readers:
                thread.join(timeout=10)
            assert problems == []
            assert len(ledger) >= 3, f"readers only saw generations {sorted(ledger)}"
            assert len(set(ledger.values())) == len(ledger), "fingerprints collided"
        finally:
            harness.shutdown()

    def test_inflight_request_finishes_on_its_own_generation(self):
        # A request that started on generation N must answer from N's
        # pack even if a swap lands mid-request; the dispatch delay
        # guarantees a swap happens while it is in flight.
        predictor = warm_predictor(300)
        server = SketchServer(
            predictor, port=0, keep_history=8, debug_dispatch_delay=0.3
        )
        harness = ServerHarness(server)
        try:
            first = server.generation
            result: dict = {}

            def slow_request():
                result["response"] = harness.score([[1, 2]])

            thread = threading.Thread(target=slow_request, daemon=True)
            thread.start()
            time.sleep(0.1)  # request is parked in its dispatch delay
            for u, v in [(1, 59), (2, 58), (3, 57)]:
                predictor.update(u, v)
            swapped = server.refresh()
            assert swapped.fingerprint != first.fingerprint
            thread.join(timeout=10)
            status, _, body = result["response"]
            assert status == 200
            assert body["generation"] == first.number
            assert body["fingerprint"] == first.fingerprint
        finally:
            harness.shutdown()

    def test_refresh_publishes_new_immutable_generation(self):
        predictor = warm_predictor(200)
        server = SketchServer(predictor, port=0, keep_history=4)
        harness = ServerHarness(server)
        try:
            first = server.generation
            predictor.update(0, 49)
            second = server.refresh()
            assert isinstance(second, Generation)
            assert second.number == first.number + 1
            assert second.fingerprint != first.fingerprint
            # The old generation object is untouched (immutable pack).
            assert first.engine.store.fingerprint() == first.fingerprint
            assert server.history[-2:] == [first, second]
        finally:
            harness.shutdown()


class TestPublicationContract:
    """RL004 regression: the one cross-boundary attribute is the
    published generation reference — numbering and refresh cadence are
    derived from it, not from extra shared counters/timestamps."""

    def test_publication_set_is_exactly_the_generation_reference(self):
        from repro.serve import server as server_module

        assert server_module._PUBLICATION_ATTRS == frozenset({"_generation"})
        # The attributes the old design shared across the boundary are
        # gone for good — numbering and cadence ride on the Generation.
        server = SketchServer(warm_predictor(50), port=0)
        assert not hasattr(server, "_generation_count")
        assert not hasattr(server, "_last_refresh")

    def test_generation_numbers_stay_monotonic_under_concurrent_readers(self):
        predictor = warm_predictor(200)
        server = SketchServer(predictor, port=0, keep_history=32)
        harness = ServerHarness(server)
        try:
            stop = threading.Event()
            problems: list = []
            ledger: dict = {}
            ledger_lock = threading.Lock()

            def reader():
                last_number = 0
                while not stop.is_set():
                    generation = server.generation
                    if generation is None:
                        continue
                    number, fingerprint = generation.number, generation.fingerprint
                    if number < last_number:
                        problems.append(f"number regressed {last_number}->{number}")
                    last_number = number
                    with ledger_lock:
                        known = ledger.setdefault(number, fingerprint)
                    if known != fingerprint:
                        problems.append(f"number {number} has two fingerprints")

            def await_recorded(number):
                # A reader starved of the GIL could otherwise miss a
                # generation outright; wait (bounded) until one of them
                # has seen it before publishing the next.
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    with ledger_lock:
                        if number in ledger:
                            return
                    time.sleep(0.001)

            readers = [threading.Thread(target=reader, daemon=True) for _ in range(4)]
            for thread in readers:
                thread.start()
            await_recorded(server.generation.number)
            rng = np.random.default_rng(5)
            for _ in range(6):
                for u, v in rng.integers(0, 50, size=(30, 2)).tolist():
                    if u != v:
                        predictor.update(u, v)
                server.refresh()
                await_recorded(server.generation.number)
                time.sleep(0.01)
            stop.set()
            for thread in readers:
                thread.join(timeout=10)
            assert problems == []
            # Derived numbering: start() published 1, six refreshes follow.
            assert server.generation.number == 7
            assert sorted(ledger) == list(range(min(ledger), 8))
        finally:
            harness.shutdown()


class TestGracefulDrain:
    """Satellite 4, second half: drain returns only after in-flight
    requests complete."""

    def test_drain_waits_for_inflight_requests(self):
        server = SketchServer(
            warm_predictor(200), port=0, debug_dispatch_delay=0.5, drain_timeout=10
        )
        harness = ServerHarness(server)
        responses: list = []

        def slow_request():
            responses.append(harness.score([[1, 2]]))

        thread = threading.Thread(target=slow_request, daemon=True)
        thread.start()
        time.sleep(0.15)  # request is in flight (parked in its delay)
        started = time.monotonic()
        server.request_shutdown()
        assert server.wait_finished(15)
        drained_after = time.monotonic() - started
        thread.join(timeout=10)
        # The drain outlasted the in-flight request, and the request
        # completed successfully rather than being dropped.
        assert drained_after >= 0.25
        assert len(responses) == 1
        status, _, body = responses[0]
        assert status == 200
        assert body["results"][0]["score"] >= 0.0
        harness.thread.join(timeout=5)

    def test_draining_readyz_is_503_and_new_connections_refused(self):
        server = SketchServer(
            warm_predictor(200), port=0, debug_dispatch_delay=0.6, drain_timeout=10
        )
        harness = ServerHarness(server)
        holder = threading.Thread(
            target=lambda: harness.score([[1, 2]]), daemon=True
        )
        holder.start()
        time.sleep(0.15)
        server.request_shutdown()
        time.sleep(0.15)  # drain has started, held open by the request
        with pytest.raises(OSError):
            harness.request("GET", "/healthz")  # listener is closed
        holder.join(timeout=10)
        assert server.wait_finished(15)
        harness.thread.join(timeout=5)

    def test_drain_with_no_traffic_is_fast(self):
        server = SketchServer(warm_predictor(100), port=0, drain_timeout=30)
        harness = ServerHarness(server)
        started = time.monotonic()
        harness.shutdown()
        assert time.monotonic() - started < 5


class TestLiveIngest:
    def test_generations_advance_with_the_stream_and_drain_checkpoints(
        self, tmp_path
    ):
        from repro.stream.checkpoint import CheckpointManager

        feed = tmp_path / "feed.txt"
        rng = np.random.default_rng(5)
        feed.write_text(
            "".join(f"{u} {v}\n" for u, v in rng.integers(0, 40, size=(300, 2)).tolist())
        )
        runner = StreamRunner(
            FileEdgeSource(feed),
            config=SketchConfig(k=8, seed=2),
            checkpoint_manager=CheckpointManager(tmp_path / "ck"),
            checkpoint_every=10_000,
        )
        server = SketchServer(
            runner=runner,
            port=0,
            refresh_every=0.05,
            ingest_chunk=64,
            idle_wait=0.02,
            keep_history=16,
        )
        harness = ServerHarness(server)
        try:
            deadline = time.monotonic() + 10
            seen = set()
            while time.monotonic() < deadline:
                status, _, body = harness.score([[1, 2]])
                assert status == 200
                seen.add(body["generation"])
                if len(seen) >= 3 and runner.offset >= 300:
                    break
                with feed.open("a") as handle:
                    for u, v in rng.integers(0, 40, size=(40, 2)).tolist():
                        handle.write(f"{u} {v}\n")
                time.sleep(0.05)
            assert len(seen) >= 3
            status, _, ready = harness.get_json("/readyz")
            assert status == 200 and ready["ready"]
        finally:
            harness.shutdown()
        # The drain wrote a final checkpoint at the committed offset.
        restored = CheckpointManager(tmp_path / "ck").load_latest()
        assert restored is not None
        assert restored.offset == runner.offset

    def test_worker_error_surfaces_in_probes(self, tmp_path):
        feed = tmp_path / "feed.txt"
        feed.write_text("1 2\n3 4\n")
        runner = StreamRunner(
            FileEdgeSource(feed), config=SketchConfig(k=8), policy="strict"
        )
        server = SketchServer(
            runner=runner, port=0, refresh_every=0.05, ingest_chunk=8, idle_wait=0.02
        )
        harness = ServerHarness(server)
        try:
            with feed.open("a") as handle:
                handle.write("oops not an edge\n")
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                status, _, ready = harness.get_json("/readyz")
                if status == 503 and "ingest worker failed" in ready["reason"]:
                    break
                time.sleep(0.05)
            assert status == 503
            assert "ingest worker failed" in ready["reason"]
            _, _, health = harness.get_json("/healthz")
            assert "ingest_error" in health
            # Serving continues on the last good generation.
            score_status, _, _ = harness.score([[1, 2]])
            assert score_status == 200
        finally:
            harness.shutdown()


class TestMicroBatching:
    def test_batcher_coalesces_queued_requests(self):
        # Direct asyncio test: requests that queue while the kernel is
        # busy are dispatched together, grouped by generation.
        engine = QueryEngine(warm_predictor(200))
        generation = Generation(
            engine, 1, 0, published_at=0.0, wall_time=0.0
        )
        from repro.obs.registry import MetricsRegistry
        import concurrent.futures

        registry = MetricsRegistry()

        async def scenario():
            executor = concurrent.futures.ThreadPoolExecutor(max_workers=1)
            batcher = _ScoreBatcher(executor, registry, max_batch_pairs=65536)
            batcher.start()
            # Enqueue everything before the worker task first runs: one
            # coalesced dispatch must serve all eight.
            futures = [
                asyncio.ensure_future(
                    batcher.score(
                        generation, np.array([[i, i + 1]], dtype=np.int64), "jaccard"
                    )
                )
                for i in range(8)
            ]
            results = await asyncio.gather(*futures)
            await batcher.stop()
            executor.shutdown()
            return results

        results = asyncio.run(scenario())
        dispatches = registry.counter("serve_kernel_dispatches_total").value
        coalesced = registry.counter("serve_coalesced_requests_total").value
        assert dispatches < 8
        assert coalesced >= 2
        expected = engine.score_many(
            np.array([[i, i + 1] for i in range(8)], dtype=np.int64), "jaccard"
        )
        for index, result in enumerate(results):
            assert result.tolist() == [expected[index]]

    def test_batch_split_respects_request_boundaries(self, harness):
        # Concurrent requests of different sizes each get exactly their
        # own scores back.
        engine = QueryEngine(harness.server.predictor)
        batches = [[[i, j] for j in range(2, 2 + size)] for i, size in enumerate([1, 3, 2, 5])]
        results: dict = {}

        def call(index, pairs):
            results[index] = harness.score(pairs)

        threads = [
            threading.Thread(target=call, args=(i, b), daemon=True)
            for i, b in enumerate(batches)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        for index, pairs in enumerate(batches):
            status, _, body = results[index]
            assert status == 200
            expected = engine.score_many(np.asarray(pairs), "jaccard")
            assert [row["score"] for row in body["results"]] == expected.tolist()
            assert [[row["u"], row["v"]] for row in body["results"]] == pairs
