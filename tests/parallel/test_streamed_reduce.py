"""The streamed shard reduce: workers send raw columns over a pipe.

* ``ShardedRunner.predictor`` equals :func:`merge_shards` of the shard
  checkpoints and the serial run — fingerprint, exported arrays and
  degrees — for 1–4 workers, append and dynamic mode, with and without
  witnesses, with a shard that receives no edge, under ``fork`` and
  ``spawn``;
* a worker that breaks off its state transfer raises
  :class:`~repro.errors.WorkerCrashError` within a few poll intervals;
* the coordinator's reduce holds the merged store plus about one chunk,
  never the shards themselves.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import random
import time
import tracemalloc

import numpy as np
import pytest

from repro.core import SketchConfig, merge_dynamic_shards, merge_shards
from repro.errors import WorkerCrashError
from repro.parallel import ShardedRunner, shard_of_array
from repro.parallel import runner as runner_module
from repro.parallel import worker as worker_module
from repro.parallel.worker import ROW_CHUNK, shard_directory
from repro.serve import PackedSketches
from repro.stream import FileEdgeSource, StreamRunner
from repro.stream.checkpoint import CheckpointManager
from repro.stream.sources import IteratorEdgeSource

SEED = 13


def _lines(workers: int, dynamic: bool) -> list:
    """A random stream; dynamic streams retract some earlier edges.
    With three or more workers the last shard's edges are left out, so
    that shard receives none."""
    rng = random.Random(workers)
    pairs = np.array([(rng.randrange(120), rng.randrange(120)) for _ in range(900)])
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    if workers >= 3:
        shards = shard_of_array(pairs[:, 0], pairs[:, 1], workers, SEED)
        pairs = pairs[shards != workers - 1]
    lines = []
    for index, (u, v) in enumerate(pairs.tolist()):
        lines.append(f"{u} {v} {index}")
        if dynamic and index % 7 == 6:
            old_u, old_v = pairs[rng.randrange(index)].tolist()
            lines.append(f"- {old_u} {old_v} {index}")
    return lines


def _assert_same(left, right) -> None:
    ours, theirs = left.export_arrays(), right.export_arrays()
    for field, a, b in zip(ours._fields, ours, theirs):
        if a is None or b is None:
            assert a is None and b is None, field
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b), field
    degrees = [left.degree(v) for v in ours.vertex_ids.tolist()]
    assert degrees == [right.degree(v) for v in ours.vertex_ids.tolist()]
    assert (
        PackedSketches.from_predictor(left).fingerprint()
        == PackedSketches.from_predictor(right).fingerprint()
    )


def _shard_checkpoints(root, workers: int) -> list:
    """The latest checkpoint of every shard that wrote one."""
    shards = []
    for shard in range(workers):
        checkpoint = CheckpointManager(shard_directory(root, shard)).load_latest()
        if checkpoint is not None:
            shards.append(checkpoint.state)
    return shards


def _check_matrix_cell(tmp_path, workers, dynamic, witnesses, context) -> None:
    config = SketchConfig(k=16, seed=SEED, track_witnesses=witnesses, dynamic_mode=dynamic)
    path = tmp_path / "edges.txt"
    path.write_text("\n".join(_lines(workers, dynamic)) + "\n")
    serial = StreamRunner(FileEdgeSource(path), config=config)
    serial.run()
    runner = ShardedRunner(
        FileEdgeSource(path),
        workers=workers,
        config=config,
        checkpoint_dir=str(tmp_path / "ck"),
        checkpoint_every=250,
        mp_context=context,
    )
    stats = runner.run()
    if workers >= 3:
        assert stats["shard_records"][-1] == 0
    shards = _shard_checkpoints(tmp_path / "ck", workers)
    assert len(shards) == workers - (workers >= 3)
    merged = (merge_dynamic_shards if dynamic else merge_shards)(shards)
    _assert_same(runner.predictor, serial.predictor)
    _assert_same(runner.predictor, merged)
    if dynamic:
        for a, b in zip(
            runner.predictor.export_dynamic_arrays(), serial.predictor.export_dynamic_arrays()
        ):
            assert np.array_equal(a, b)


class TestDifferential:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    @pytest.mark.parametrize("dynamic", [False, True], ids=["append", "dynamic"])
    @pytest.mark.parametrize("witnesses", [True, False], ids=["witnesses", "no-witnesses"])
    def test_fork(self, tmp_path, workers, dynamic, witnesses):
        _check_matrix_cell(tmp_path, workers, dynamic, witnesses, "fork")

    @pytest.mark.parametrize("dynamic", [False, True], ids=["append", "dynamic"])
    def test_spawn(self, tmp_path, dynamic):
        _check_matrix_cell(tmp_path, 3, dynamic, True, "spawn")

    def test_rows_span_several_chunks(self, tmp_path):
        # More vertices than one chunk holds, so every shard sends
        # several row messages and the last one is partial.
        rng = random.Random(2)
        vertices = 2 * ROW_CHUNK + 300
        lines = [f"{rng.randrange(vertices)} {rng.randrange(vertices)}" for _ in range(6000)]
        config = SketchConfig(k=8, seed=SEED)
        serial = StreamRunner(IteratorEdgeSource(lines), config=config)
        serial.run()
        runner = ShardedRunner(IteratorEdgeSource(lines), workers=2, config=config)
        runner.run()
        assert runner.predictor.vertex_count > ROW_CHUNK
        _assert_same(runner.predictor, serial.predictor)


def _breaks_off(closed_at, exit_code):
    """A ``send_state`` under which shard 0 sends its first column, then
    breaks off: it closes the pipe and lingers (``exit_code`` None) or
    exits.  Other shards send their state as usual."""
    send_whole = worker_module.send_state

    def send_state(connection, predictor):
        if multiprocessing.current_process().name != "repro-shard-0":
            return send_whole(connection, predictor)
        connection.send_bytes(predictor._stored_arrays().vertex_ids)
        closed_at.value = time.monotonic()
        if exit_code is not None:
            os._exit(exit_code)
        connection.close()
        time.sleep(60)  # the coordinator must not wait for this

    return send_state


class TestBrokenTransfer:
    @pytest.mark.parametrize("exit_code", [None, 3], ids=["closes-pipe", "exits"])
    def test_raises_within_a_few_poll_intervals(self, monkeypatch, exit_code):
        closed_at = multiprocessing.get_context("fork").Value("d", 0.0)
        # Forked workers inherit the patched module attribute.
        monkeypatch.setattr(worker_module, "send_state", _breaks_off(closed_at, exit_code))
        lines = [f"{u} {u + 1}" for u in range(200)]
        runner = ShardedRunner(
            IteratorEdgeSource(lines), workers=2, config=SketchConfig(k=8), mp_context="fork"
        )
        with pytest.raises(WorkerCrashError) as crashed:
            runner.run()
        raised_at = time.monotonic()
        assert crashed.value.shard == 0  # shard 0's columns are read first
        assert closed_at.value > 0
        assert raised_at - closed_at.value < 5 * runner_module._POLL_SECONDS + 0.5
        if exit_code is not None:
            assert crashed.value.exitcode == exit_code
        for process in runner.processes:
            process.join(timeout=5.0)
            assert not process.is_alive()


class TestReduceMemory:
    def test_coordinator_holds_the_merged_store_and_one_chunk(self, monkeypatch):
        """Traced from the moment the workers are told to finish: the
        peak stays within the merged predictor's own footprint plus one
        chunk buffer plus three chunks of slack (the fold's gathered
        rows, the improved block and its source).  Holding even one
        shard would add most of a merged store (here ~3.7 MB against
        ~1 MB of headroom)."""
        rng = random.Random(4)
        lines = [f"{rng.randrange(6000)} {rng.randrange(6000)}" for _ in range(20000)]
        config = SketchConfig(k=64, seed=SEED)
        mark = {}
        put = runner_module.ShardedRunner._put

        def traced_put(self, shard, item):
            if item[0] in ("finish", "halt") and "base" not in mark:
                mark["base"] = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            put(self, shard, item)

        monkeypatch.setattr(runner_module.ShardedRunner, "_put", traced_put)
        runner = ShardedRunner(IteratorEdgeSource(lines), workers=2, config=config)
        gc.collect()
        tracemalloc.start()
        try:
            runner.run()
            after, peak = tracemalloc.get_traced_memory()
            runner.predictor = None  # what is left is everything but the merged predictor
            gc.collect()
            footprint = after - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        chunk = ROW_CHUNK * config.k * 16  # values and witnesses
        store = 6000 * config.k * 16
        assert footprint > 0.9 * store  # the measurement sees the merged store
        assert peak - mark["base"] <= footprint + chunk + 3 * chunk
