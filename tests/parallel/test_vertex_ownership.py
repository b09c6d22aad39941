"""Vertex-owned shards against the serial runner, across a kill.

Each differential case ingests one stream serially and sharded (2 or 3
workers).  The sharded run is killed after a random number of records
(``run(max_records=...)`` stops every worker without a final
checkpoint, the on-disk state of a crash) and resumed.  Each case pins:

* the resumed sharded predictor's fingerprint equals the serial one;
* each shard's newest checkpoint holds exactly the vertices it owns, so
  the shards are vertex-disjoint, and together they hold every vertex
  of the serial store;
* on both legs, ``sum(shard_records) == records_ok``.

A resume whose partition differs from the writer's is refused.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import SketchConfig
from repro.errors import ConfigurationError
from repro.parallel import ShardedRunner, owner_of_array, shard_directory
from repro.stream import CheckpointManager, FileEdgeSource, IteratorEdgeSource, StreamRunner
from repro.stream.casebook import SyntheticCorpusGenerator, sketch_fingerprint
from repro.stream.policies import PolicySet


def _corpus(kind: str, seed: int):
    """``(lines, config, guard factory)`` of one case's stream."""
    if kind == "append":
        rng = random.Random(seed)
        lines = [f"{rng.randrange(60)} {rng.randrange(60)}" for _ in range(300)]
        return lines, SketchConfig(k=16, seed=seed), lambda: None
    generator = SyntheticCorpusGenerator(
        seed, vertices=60, clean_edges=80, per_case=2, with_deletes=True
    )
    lines = [line.text for line in generator.generate()]
    config = SketchConfig(k=16, seed=seed, dynamic_mode=True)
    return lines, config, lambda: generator.guard(PolicySet.uniform("normalize"))


def _owned_vertex_sets(directory: str, workers: int, seed: int) -> list:
    """Each shard's newest checkpointed vertex ids, checked to be the
    vertices it owns (empty for a shard that never checkpointed)."""
    held = []
    for shard in range(workers):
        checkpoint = CheckpointManager(shard_directory(directory, shard)).load_latest()
        ids = (
            np.empty(0, dtype=np.int64)
            if checkpoint is None
            else checkpoint.state.export_arrays().vertex_ids
        )
        assert (owner_of_array(ids, workers, seed) == shard).all()
        held.append(set(ids.tolist()))
    return held


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    workers=st.sampled_from([2, 3]),
    kind=st.sampled_from(["append", "deletes"]),
    seed=st.integers(0, 2**16),
    kill_at=st.floats(0.05, 0.95),
)
def test_killed_and_resumed_sharded_run_equals_serial(workers, kind, seed, kill_at):
    lines, config, guard = _corpus(kind, seed)
    serial = StreamRunner(IteratorEdgeSource(lines), config=config, guard=guard())
    serial.run()
    directory = tempfile.mkdtemp()
    try:

        def sharded():
            return ShardedRunner(
                IteratorEdgeSource(lines),
                workers=workers,
                config=config,
                guard=guard(),
                checkpoint_dir=directory,
                checkpoint_every=7,
                chunk_records=16,
                mp_context="fork",
            )

        killed = sharded()
        stats = killed.run(max_records=max(1, int(len(lines) * kill_at)))
        assert sum(stats["shard_records"]) == stats["records_ok"]
        resumed = sharded()
        resumed.resume()
        stats = resumed.run()
        assert sum(stats["shard_records"]) == stats["records_ok"]
        assert sketch_fingerprint(resumed.predictor) == sketch_fingerprint(serial.predictor)

        held = _owned_vertex_sets(directory, workers, config.seed)
        assert sum(len(vertices) for vertices in held) == len(set().union(*held))
        assert set().union(*held) == set(serial.predictor.export_arrays().vertex_ids.tolist())
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _write_edges(path: Path) -> Path:
    rng = random.Random(2)
    pairs = [(rng.randrange(200), rng.randrange(200)) for _ in range(3000)]
    path.write_text("".join(f"{u} {v}\n" for u, v in pairs if u != v))
    return path


def _sharded(path, directory, workers):
    return ShardedRunner(
        FileEdgeSource(path),
        workers=workers,
        config=SketchConfig(k=16, seed=4),
        checkpoint_dir=str(directory),
        checkpoint_every=200,
    )


class TestResumeRefusal:
    @pytest.mark.parametrize("resume_workers", [1, 3])
    def test_another_worker_count_is_refused(self, tmp_path, resume_workers):
        edges = _write_edges(tmp_path / "edges.txt")
        _sharded(edges, tmp_path / "ck", 2).run(max_records=1500)
        resumed = _sharded(edges, tmp_path / "ck", resume_workers)
        assert resumed.resume() is True
        with pytest.raises(ConfigurationError, match="partition mismatch.*2 workers"):
            resumed.run()
        for process in resumed.processes:
            process.join(timeout=5.0)
            assert not process.is_alive()

    def test_the_same_worker_count_resumes(self, tmp_path):
        edges = _write_edges(tmp_path / "edges.txt")
        _sharded(edges, tmp_path / "ck", 2).run(max_records=1500)
        resumed = _sharded(edges, tmp_path / "ck", 2)
        resumed.resume()
        assert resumed.run()["source_exhausted"] is True
        whole = StreamRunner(FileEdgeSource(edges), config=SketchConfig(k=16, seed=4))
        whole.run()
        assert sketch_fingerprint(resumed.predictor) == sketch_fingerprint(whole.predictor)

    def test_an_unstamped_edge_partitioned_directory_is_refused(self, tmp_path):
        # A checkpoint without the partition stamp, as every shard
        # checkpoint written before vertex ownership is.
        edges = _write_edges(tmp_path / "edges.txt")
        _sharded(edges, tmp_path / "ck", 2).run()
        for shard in range(2):
            directory = shard_directory(tmp_path / "ck", shard)
            checkpoint = CheckpointManager(directory).load_latest()
            shutil.rmtree(directory)
            CheckpointManager(directory).save(checkpoint.state, checkpoint.offset)
        resumed = _sharded(edges, tmp_path / "ck", 2)
        resumed.resume()
        with pytest.raises(ConfigurationError, match="no partition stamp"):
            resumed.run()

    def test_cli_exits_2_with_the_mismatch_message(self, tmp_path, capsys):
        edges = _write_edges(tmp_path / "edges.txt")
        _sharded(edges, tmp_path / "ck", 2).run(max_records=1500)
        code = main(
            [
                "ingest", str(edges), "--k", "16", "--seed", "4", "--workers", "3",
                "--checkpoint-dir", str(tmp_path / "ck"), "--checkpoint-every", "200",
                "--resume",
            ]
        )
        assert code == 2
        assert "partition mismatch" in capsys.readouterr().err
