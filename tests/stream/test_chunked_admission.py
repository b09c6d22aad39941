"""Chunked admission is record-at-a-time scalar admission, bit for bit.

:meth:`~repro.stream.admission.Admission.admit_chunk` judges the clean
lines of a chunk in bulk and sends everything else through
:meth:`~repro.stream.policies.StreamGuard.evaluate`.  The reference
here is the scalar loop: :meth:`Admission.admit` on each record in
turn, each accepted one applied with the scalar ``update``/``delete``
(the runner folds whole chunks through the block kernel).  Over hostile streams — every casebook
mode, the legacy contract, dynamic deletes, tight hub limits, strict
raises partway through a chunk — both give the same accepted records,
dead-letter rows, counters, guard state, error, checkpoint offsets and
sketch fingerprints.
"""

from __future__ import annotations

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SketchConfig
from repro.core.persistence import read_checkpoint
from repro.errors import DeadLetterError
from repro.obs.registry import MetricsRegistry
from repro.stream import CheckpointManager, IteratorEdgeSource, MemoryDeadLetters, StreamRunner
from repro.stream.admission import Admission
from repro.stream.casebook import sketch_fingerprint
from repro.stream.policies import MODES, PolicySet, StreamGuard
from repro.stream.sources import SourceRecord
from tests.stream.reference import apply_record

vertex = st.integers(0, 7)
stamp = st.one_of(
    st.integers(0, 60).map(str),
    st.sampled_from(["12.5", ".5", "7.", "5000000000", "nan", "inf", "1e3", "x"]),
)


@st.composite
def _line(draw):
    u, v, t = draw(vertex), draw(vertex), draw(stamp)
    shape = draw(st.integers(0, 15))
    if shape <= 5:
        return f"{u} {v}"
    if shape <= 8:
        return f"{u}\t{v} {t}"
    return draw(
        st.sampled_from(
            [
                f"{u},{v}",
                f"﻿{u} {v}\x00",
                f"{u} {v} 7 junk",
                f"v{u} v{v}",
                f"-{u} {v}",
                f"- {u} {v}",
                f"del {u} {v} {t}",
                f"+ {u} {v}",
                f"{u} 9223372036854775808",
                (u, v),
                (u, v, 3.0),
                3.5,
                "",
            ]
        )
    )


# Hostile streams, and clean ones whose verdicts turn on the guard's
# state alone (duplicates, hub limits) far more often.
streams = st.one_of(
    st.lists(_line(), max_size=60),
    st.lists(st.tuples(vertex, vertex).map("{0[0]} {0[1]}".format), min_size=10, max_size=60),
)
modes = st.sampled_from(MODES + (None,))


def _guard(mode, hub, dynamic):
    policies = None if mode is None else PolicySet.uniform(mode)
    return StreamGuard(policies, hub_degree_limit=hub, supports_deletes=dynamic)


def _admission(lines, mode, hub, dynamic):
    registry = MetricsRegistry()
    records = registry.counter("ingest_records_total", "test", labelnames=("outcome",))
    return Admission(
        IteratorEdgeSource(lines),
        registry,
        records,
        dynamic=dynamic,
        dead_letters=MemoryDeadLetters(capacity=1000),
        guard=_guard(mode, hub, dynamic),
    )


def _outcome(admission, accepted, error):
    guard = admission.guard
    state = guard.state_arrays()
    return {
        "accepted": accepted,
        "letters": [
            (letter.offset, letter.line_number, letter.reason, letter.detail, letter.raw)
            for letter in admission.dead_letters.entries
        ],
        "stats": admission.stats(),
        "error": error,
        "seen": sorted(zip(state["seen_lo"].tolist(), state["seen_hi"].tolist())),
        "degrees": dict(zip(state["degree_vertices"].tolist(), state["degrees"].tolist())),
        "high_water": float(state["high_water"]),
    }


def _scalar(lines, mode, hub, dynamic):
    admission = _admission(lines, mode, hub, dynamic)
    accepted, error = [], None
    try:
        for record in admission.source.records():
            typed = admission.admit(record)
            if typed is not None:
                accepted.append(
                    (record.offset, typed.op == "delete", typed.u, typed.v, typed.timestamp)
                )
    except DeadLetterError as raised:
        error = (raised.offset, raised.reason, str(raised))
    return _outcome(admission, accepted, error)


def _chunked(lines, mode, hub, dynamic, sizes):
    admission = _admission(lines, mode, hub, dynamic)
    accepted, error = [], None
    records = list(admission.source.records())

    def sink(block):
        accepted.extend(
            zip(
                block.offsets.tolist(),
                block.deletes.tolist(),
                block.us.tolist(),
                block.vs.tolist(),
                block.timestamps.tolist(),
            )
        )

    start = 0
    try:
        for size in sizes:
            chunk = records[start : start + size]
            if not chunk:
                break
            admission.admit_chunk(chunk, sink)
            assert admission.settled == len(chunk)
            start += size
    except DeadLetterError as raised:
        error = (raised.offset, raised.reason, str(raised))
        assert records[start + admission.settled].offset == raised.offset
    return _outcome(admission, accepted, error)


chunk_sizes = st.lists(st.integers(1, 25), min_size=30, max_size=30)


@settings(max_examples=300, deadline=None)
@given(streams, modes, st.integers(2, 6), st.booleans(), chunk_sizes)
def test_chunks_judge_like_the_scalar_guard(lines, mode, hub, dynamic, sizes):
    assert _chunked(lines, mode, hub, dynamic, sizes) == _scalar(lines, mode, hub, dynamic)


def test_strict_raise_partway_through_a_chunk():
    lines = ["1 2", "2 3", "3 4", "1 2", "4 5", "5 6"]
    chunked = _chunked(lines, "strict", 100, False, [6])
    assert chunked == _scalar(lines, "strict", 100, False)
    assert chunked["error"][:2] == (3, "duplicate_edge")
    assert [record[0] for record in chunked["accepted"]] == [0, 1, 2]


def test_hub_limit_reached_inside_a_chunk():
    # A star: the hub's third edge breaks the limit mid-chunk, and a
    # repaired hostile line before it adds one more degree.
    lines = ["0 1", "0,2", "3 4", "0 5", "0 6", "5 6", "0 7"]
    for mode in ("quarantine", "normalize"):
        for sizes in ([7], [2, 5], [1] * 7):
            chunked = _chunked(lines, mode, 3, False, sizes)
            assert chunked == _scalar(lines, mode, 3, False)
            hubs = [record[0] for record in chunked["accepted"] if record[2] == 0]
            # normalize repairs "0,2" into the hub's second edge.
            assert hubs == ([0, 1, 3] if mode == "normalize" else [0, 3, 4])


# ----------------------------------------------------------------------
# The runner: checkpoint offsets and fingerprints
# ----------------------------------------------------------------------


def _config(dynamic):
    return SketchConfig(k=8, seed=5, dynamic_mode=dynamic)


def _reference_run(lines, mode, hub, dynamic, every):
    """The record-at-a-time runner: admit, apply with the scalar
    ``update``/``delete``, snapshot every ``every`` records."""
    predictor = StreamRunner(IteratorEdgeSource(lines), config=_config(dynamic)).predictor
    admission = _admission(lines, mode, hub, dynamic)
    snapshots, error, offset = [], None, 0
    try:
        for record in admission.source.records():
            typed = admission.admit(record)
            if typed is not None:
                apply_record(predictor, typed)
            offset = record.offset + 1
            if offset % every == 0:
                snapshots.append((offset, sketch_fingerprint(predictor)))
        if offset % every:
            snapshots.append((offset, sketch_fingerprint(predictor)))
    except DeadLetterError as raised:
        error = (raised.offset, raised.reason, str(raised))
    return snapshots, error, offset, sketch_fingerprint(predictor)


@settings(max_examples=60, deadline=None)
@given(streams, modes, st.integers(2, 6), st.booleans(), st.integers(1, 9))
def test_runner_checkpoints_match_the_scalar_loop(lines, mode, hub, dynamic, every):
    expected = _reference_run(lines, mode, hub, dynamic, every)
    with tempfile.TemporaryDirectory() as directory:
        manager = CheckpointManager(directory, keep=1000)
        runner = StreamRunner(
            IteratorEdgeSource(lines),
            config=_config(dynamic),
            checkpoint_manager=manager,
            checkpoint_every=every,
            guard=_guard(mode, hub, dynamic),
            dead_letters=MemoryDeadLetters(capacity=1000),
        )
        error = None
        try:
            runner.run()
        except DeadLetterError as raised:
            error = (raised.offset, raised.reason, str(raised))
        snapshots = []
        for generation in sorted(manager.generations()):
            verified = read_checkpoint(manager.directory / f"checkpoint-{generation}.npz")
            snapshots.append(
                (verified.metadata["stream_offset"], sketch_fingerprint(verified.to_predictor()))
            )
        observed = (snapshots, error, runner.offset, sketch_fingerprint(runner.predictor))
    assert observed == expected
