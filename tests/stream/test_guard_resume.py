"""A resumed run judges against the guard state its checkpoint holds.

A checkpoint stores the guard's seen edges, degrees and high-water
mark beside the sketches, so killing a casebook run at any offset and
resuming it ends bit-identical to the uninterrupted run — duplicates of
edges from before the checkpoint included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DynamicMinHashPredictor, MinHashLinkPredictor, SketchConfig
from repro.core.persistence import read_checkpoint
from repro.errors import CheckpointCorruptError, DeadLetterError
from repro.stream import (
    CheckpointManager,
    IteratorEdgeSource,
    MemoryDeadLetters,
    PolicySet,
    StreamRunner,
    SyntheticCorpusGenerator,
)
from repro.stream.casebook import sketch_fingerprint
from repro.stream.policies import MODES, StreamGuard
from tests.stream.reference import fold_accepted


def _leg(lines, directory, guard, config, *, resume=False, max_records=None, every=7):
    runner = StreamRunner(
        IteratorEdgeSource(lines),
        config=config,
        checkpoint_manager=CheckpointManager(directory, keep=100),
        checkpoint_every=every,
        guard=guard,
        dead_letters=MemoryDeadLetters(capacity=1000),
    )
    if resume:
        runner.resume()
    start = runner.offset
    error = None
    try:
        runner.run(max_records=max_records)
    except DeadLetterError as raised:
        error = raised.offset
    letters = [
        (letter.offset, letter.reason, letter.detail) for letter in runner.dead_letters.entries
    ]
    return runner, error, letters, start


@pytest.mark.parametrize("with_deletes", [False, True])
@pytest.mark.parametrize("mode", MODES)
def test_kill_and_resume_is_bit_identical(tmp_path, mode, with_deletes):
    generator = SyntheticCorpusGenerator(
        0, per_case=3, hub_degree_limit=6, with_deletes=with_deletes
    )
    lines = [line.text for line in generator.generate()]
    config = SketchConfig(k=16, seed=3, dynamic_mode=with_deletes)

    def guard():
        return generator.guard(PolicySet.uniform(mode))

    whole, whole_error, whole_letters, _ = _leg(lines, tmp_path / "whole", guard(), config)
    predictor = DynamicMinHashPredictor(config) if with_deletes else MinHashLinkPredictor(config)
    assert sketch_fingerprint(whole.predictor) == sketch_fingerprint(
        fold_accepted(lines, predictor, guard=guard())
    )
    for kill in (5, 19, 33, 50, 71):
        directory = tmp_path / f"kill-{kill}"
        _, first_error, first_letters, _ = _leg(lines, directory, guard(), config, max_records=kill)
        second, second_error, second_letters, resumed_at = _leg(
            lines, directory, guard(), config, resume=True
        )
        assert second_error == (first_error if first_error is not None else whole_error)
        assert second.offset == whole.offset
        assert sketch_fingerprint(second.predictor) == sketch_fingerprint(whole.predictor)
        # The first leg's letters below the resume point, then the
        # second leg's: exactly the uninterrupted run's letters.
        kept = [entry for entry in first_letters if entry[0] < resumed_at]
        assert kept + second_letters == whole_letters


def test_strict_resume_still_sees_a_duplicate_of_a_checkpointed_edge(tmp_path):
    lines = [f"{i} {i + 1}" for i in range(20)] + ["3 4"] + [f"{i} {i + 2}" for i in range(5)]
    config = SketchConfig(k=8, seed=1)

    def guard():
        return StreamGuard(PolicySet.uniform("strict"))

    whole, whole_error, _, _ = _leg(lines, tmp_path / "whole", guard(), config, every=10)
    assert whole_error == 20
    _leg(lines, tmp_path / "killed", guard(), config, every=10, max_records=15)
    resumed, resumed_error, _, resumed_at = _leg(
        lines, tmp_path / "killed", guard(), config, every=10, resume=True
    )
    assert resumed_at == 10
    assert resumed_error == 20
    assert sketch_fingerprint(resumed.predictor) == sketch_fingerprint(whole.predictor)


def _saved_guard_checkpoint(tmp_path):
    runner, _, _, _ = _leg(
        ["1 2", "2 3", "3 4", "1 2"], tmp_path, StreamGuard(PolicySet()), SketchConfig(k=8)
    )
    return runner.checkpoints, runner.checkpoints.directory / "checkpoint-1.npz"


def test_serving_reads_skip_the_guard_fields(tmp_path):
    manager, path = _saved_guard_checkpoint(tmp_path)
    served = read_checkpoint(path)
    assert served.guard is None
    assert not any(field.startswith("guard_") for field in served.fields)
    resumed = read_checkpoint(path, guard=True)
    guard = resumed.guard
    assert sorted(zip(guard["seen_lo"].tolist(), guard["seen_hi"].tolist())) == [
        (1, 2),
        (2, 3),
        (3, 4),
    ]
    degrees = dict(zip(guard["degree_vertices"].tolist(), guard["degrees"].tolist()))
    assert degrees == {1: 1, 2: 2, 3: 2, 4: 1}
    assert float(guard["high_water"]) == 2.0


def test_a_corrupt_guard_field_fails_only_the_resume_read(tmp_path):
    manager, path = _saved_guard_checkpoint(tmp_path)
    with np.load(path) as archive:
        fields = {name: archive[name] for name in archive.files}
    fields["guard_degrees"] = fields["guard_degrees"] + 1
    np.savez(path, **fields)
    assert read_checkpoint(path).export_arrays() is not None  # serving is unaffected
    with pytest.raises(CheckpointCorruptError, match="guard checksum"):
        read_checkpoint(path, guard=True)
    with pytest.raises(CheckpointCorruptError):
        manager.load_latest(guard=True)


def test_checkpoints_without_guard_fields_resume_with_an_empty_guard(tmp_path):
    config = SketchConfig(k=8, seed=2)
    lines = ["1 2", "2 3", "1 2", "3 4"]
    first = StreamRunner(
        IteratorEdgeSource(lines),
        config=config,
        checkpoint_manager=CheckpointManager(tmp_path),
        checkpoint_every=2,
    )
    first.run(max_records=3)  # legacy contract: no guard state is saved
    assert read_checkpoint(tmp_path / "checkpoint-1.npz", guard=True).guard is None
    resumed = StreamRunner(
        IteratorEdgeSource(lines),
        config=config,
        checkpoint_manager=CheckpointManager(tmp_path),
        checkpoint_every=2,
        policies="normalize",
    )
    assert resumed.resume()
    stats = resumed.run()
    # The guard starts empty at offset 2, so the duplicate at offset 2 passes.
    assert stats["duplicate_edges_detected"] == 0
    assert stats["records_ok"] == 2
