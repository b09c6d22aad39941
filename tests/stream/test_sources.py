"""Sources: offset addressing, retry policy, and retry-exact delivery."""

from __future__ import annotations

import os

import pytest

from repro.core import SketchConfig
from repro.errors import ConfigurationError, RetryExhaustedError
from repro.stream import (
    FaultInjector,
    FileEdgeSource,
    IteratorEdgeSource,
    MemoryDeadLetters,
    RetryingSource,
    RetryPolicy,
    StreamRunner,
    SyntheticEdgeSource,
)
from repro.stream import sources as sources_module


class TestFileEdgeSource:
    def test_offsets_skip_comments_and_blanks(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# header\n\n0 1\n% alt comment\n2 3\n\n4 5\n")
        records = list(FileEdgeSource(path).records())
        assert [(r.offset, r.value, r.line_number) for r in records] == [
            (0, "0 1", 3),
            (1, "2 3", 5),
            (2, "4 5", 7),
        ]

    def test_start_offset_resumes_mid_file(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n2 3\n4 5\n6 7\n")
        records = list(FileEdgeSource(path).records(start_offset=2))
        assert [(r.offset, r.value) for r in records] == [(2, "4 5"), (3, "6 7")]

    def test_malformed_lines_are_transported_not_rejected(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\nutter garbage here\n2 3\n")
        values = [r.value for r in FileEdgeSource(path).records()]
        assert values == ["0 1", "utter garbage here", "2 3"]


def _triples(records):
    return [(r.offset, r.value, r.line_number) for r in records]


def _leg(source, start, count):
    """One consumer leg the way ``StreamRunner.run(max_records=count)``
    reads: take ``count`` records, pull one more, then stop."""
    taken = []
    for record in source.records(start):
        if len(taken) == count:
            break
        taken.append(record)
    return taken


def _read_in_legs(source, count):
    records, start = [], 0
    while True:
        leg = _leg(source, start, count)
        if not leg:
            return records
        records.extend(leg)
        start = leg[-1].offset + 1


@pytest.fixture
def opens(monkeypatch):
    """Count the files the source opens (each open is a read from line 1)."""
    calls = []

    def counting_open(*args, **kwargs):
        calls.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(sources_module, "open", counting_open, raising=False)
    return calls


class _FailingHandle:
    """A text handle whose iteration raises one OSError after ``after`` lines."""

    failures = 0

    def __init__(self, handle, after):
        self._handle = handle
        self._after = after

    def __iter__(self):
        return self

    def __next__(self):
        if self._after == 0 and _FailingHandle.failures == 0:
            _FailingHandle.failures += 1
            raise OSError("injected read failure")
        self._after -= 1
        return next(self._handle)

    def __getattr__(self, name):
        return getattr(self._handle, name)


class TestFileEdgeSourceCursor:
    TEXT = "# header\n0 1\n\n2 3\n% note\n4 5\n6 7\nbad line\n8 9\n10 11\n"

    def test_legs_resume_from_the_parked_handle(self, tmp_path, opens):
        path = tmp_path / "edges.txt"
        path.write_text(self.TEXT)
        expected = _triples(FileEdgeSource(path).records())
        del opens[:]
        for count in (1, 2, 3):
            source = FileEdgeSource(path)
            assert _triples(_read_in_legs(source, count)) == expected
        assert len(opens) == 3  # one open per source, however many legs

    def test_file_appended_between_legs(self, tmp_path, opens):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n# c\n2 3\n")
        source = FileEdgeSource(path)
        assert _triples(source.records()) == [(0, "0 1", 1), (1, "2 3", 3)]
        assert _triples(source.records(2)) == []
        with open(path, "a") as handle:
            handle.write("\n4 5\n6 7\n")
        appended = _triples(source.records(2))
        assert appended == [(2, "4 5", 5), (3, "6 7", 6)]
        assert len(opens) == 1
        assert appended == _triples(FileEdgeSource(path).records(2))

    def test_half_written_line_is_read_again_from_line_one(self, tmp_path, opens):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n2 3")  # the writer is mid-line
        source = FileEdgeSource(path)
        assert _triples(source.records()) == [(0, "0 1", 1), (1, "2 3", 2)]
        with open(path, "a") as handle:
            handle.write("4\n5 6\n")
        # Exactly what a fresh read from line 1 gives: line 2 is now
        # "2 34" at offset 1, so offset 2 is "5 6" on line 3.
        assert _triples(source.records(2)) == [(2, "5 6", 3)]
        assert len(opens) == 2

    def test_split_crlf_keeps_line_numbers(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_bytes(b"0 1\r")
        source = FileEdgeSource(path)
        assert _triples(source.records()) == [(0, "0 1", 1)]
        with open(path, "ab") as handle:
            handle.write(b"\n2 3\r\n")
        assert _triples(source.records(1)) == [(1, "2 3", 2)]

    def test_non_sequential_start_offset_reads_from_line_one(self, tmp_path, opens):
        path = tmp_path / "edges.txt"
        path.write_text(self.TEXT)
        expected = _triples(FileEdgeSource(path).records())
        source = FileEdgeSource(path)
        del opens[:]
        assert _triples(_leg(source, 0, 4)) == expected[:4]
        assert _triples(_leg(source, 1, 2)) == expected[1:3]  # backwards
        assert _triples(_leg(source, 5, 10)) == expected[5:]  # skips ahead
        assert _triples(source.records(0)) == expected
        assert len(opens) == 4

    def test_replaced_file_is_read_again(self, tmp_path, opens):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n2 3\n")
        source = FileEdgeSource(path)
        assert len(list(source.records())) == 2
        replacement = tmp_path / "next.txt"
        replacement.write_text("0 1\n2 3\n4 5\n")
        os.replace(replacement, path)
        assert _triples(source.records(2)) == [(2, "4 5", 3)]
        assert len(opens) == 2

    def test_retries_resume_at_exact_offsets(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(40)))
        flaky = FaultInjector(seed=7, io_error_rate=0.3, max_failures_per_offset=2).flaky(
            FileEdgeSource(path)
        )
        sleeps: list = []
        retrying = RetryingSource(flaky, RetryPolicy(base_delay=0.0, sleep=sleeps.append))
        records = _read_in_legs(retrying, 7)
        assert [r.offset for r in records] == list(range(40))
        assert [r.line_number for r in records] == list(range(1, 41))
        assert flaky.failures_injected > 0 and len(sleeps) == flaky.failures_injected

    def test_read_error_reopens_from_line_one(self, tmp_path, monkeypatch, opens):
        path = tmp_path / "edges.txt"
        path.write_text(self.TEXT)
        expected = _triples(FileEdgeSource(path).records())
        real_open = sources_module.open

        def failing_open(*args, **kwargs):
            return _FailingHandle(real_open(*args, **kwargs), after=6)

        monkeypatch.setattr(sources_module, "open", failing_open)
        monkeypatch.setattr(_FailingHandle, "failures", 0)
        del opens[:]
        sleeps: list = []
        retrying = RetryingSource(
            FileEdgeSource(path), RetryPolicy(base_delay=0.0, sleep=sleeps.append)
        )
        assert _triples(_read_in_legs(retrying, 2)) == expected
        assert retrying.retries == 1
        assert len(opens) == 2

    def test_runner_legs_keep_dead_letters_and_utf8_errors(self, tmp_path):
        path = tmp_path / "edges.txt"
        lines = []
        for i in range(1200):
            lines.append(f"{i} {i + 1}\n" if i % 97 else "not an edge\n")
            if i % 250 == 0:
                lines.append("# comment\n")
        path.write_bytes("".join(lines).encode() + b"5 \xff\n7 8\n")

        def run(legs):
            sink = MemoryDeadLetters()
            runner = StreamRunner(
                FileEdgeSource(path),
                config=SketchConfig(k=8, seed=1),
                dead_letters=sink,
                policy="quarantine",
            )
            while not runner.source_exhausted:
                runner.run(max_records=legs)
            letters = [(d.reason, d.offset, d.line_number, d.raw) for d in sink.entries]
            return runner.offset, letters, runner.predictor.export_arrays()

        offset, letters, arrays = run(None)
        # The undecodable line is a dead letter, not an abort: the line
        # after it is still read.
        assert offset == 1202
        assert letters[-1] == ("bad_encoding", 1200, 1206, "5 \udcff")
        for legs in (7, 64):
            leg_offset, leg_letters, leg_arrays = run(legs)
            assert (leg_offset, leg_letters) == (offset, letters)
            for expected_array, leg_array in zip(arrays, leg_arrays):
                assert expected_array.tobytes() == leg_array.tobytes()


class TestIteratorEdgeSource:
    def test_sequence_replay_is_offset_exact(self):
        source = IteratorEdgeSource([(0, 1), (2, 3), (4, 5)])
        assert [r.offset for r in source.records()] == [0, 1, 2]
        assert [r.value for r in source.records(start_offset=1)] == [(2, 3), (4, 5)]
        # replay gives identical records
        assert list(source.records()) == list(source.records())

    def test_factory_replay(self):
        source = IteratorEdgeSource(lambda: iter([(0, 1), (2, 3)]))
        assert [r.value for r in source.records(1)] == [(2, 3)]
        assert [r.value for r in source.records(1)] == [(2, 3)]

    def test_one_shot_iterator_rejected(self):
        with pytest.raises(ConfigurationError, match="replay"):
            IteratorEdgeSource(iter([(0, 1)]))

    def test_synthetic_source_is_deterministic(self):
        a = list(SyntheticEdgeSource("synth-facebook", seed=3).records())
        b = list(SyntheticEdgeSource("synth-facebook", seed=3).records())
        assert a == b and len(a) > 0


class TestRetryPolicy:
    def test_schedule_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0
        )
        assert policy.schedule() == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_stays_within_band(self):
        import random

        policy = RetryPolicy(base_delay=1.0, multiplier=1.0, jitter=0.25)
        rng = random.Random(0)
        for attempt in range(50):
            delay = policy.delay(attempt % 4, rng)
            assert 0.75 <= delay <= 1.25

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay=-1.0)


class TestRetryingSource:
    @staticmethod
    def _policy(sleeps, attempts=4):
        return RetryPolicy(
            max_attempts=attempts,
            base_delay=0.01,
            jitter=0.0,
            sleep=sleeps.append,
        )

    def test_transient_failures_recover_gaplessly(self):
        base = IteratorEdgeSource([(i, i + 1) for i in range(20)])
        flaky = FaultInjector(seed=7, io_error_rate=0.4, max_failures_per_offset=2).flaky(base)
        sleeps: list = []
        retrying = RetryingSource(flaky, self._policy(sleeps))
        records = list(retrying.records())
        assert [r.offset for r in records] == list(range(20))  # no gap, no dup
        assert flaky.failures_injected > 0
        assert len(sleeps) == flaky.failures_injected == retrying.retries

    def test_exhaustion_raises_typed_error(self):
        base = IteratorEdgeSource([(0, 1), (1, 2)])
        # offset 1 fails more times than the policy tolerates
        injector = FaultInjector(seed=1, io_error_rate=1.0, max_failures_per_offset=50)
        sleeps: list = []
        retrying = RetryingSource(injector.flaky(base), self._policy(sleeps, attempts=3))
        with pytest.raises(RetryExhaustedError) as excinfo:
            list(retrying.records())
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.last_error, IOError)
        assert len(sleeps) == 2  # attempts - 1 backoffs before giving up

    def test_success_resets_attempt_budget(self):
        # Every offset fails twice; with max_attempts=3 each offset
        # individually recovers, because delivery resets the counter.
        base = IteratorEdgeSource([(i, i + 1) for i in range(6)])
        injector = FaultInjector(seed=2, io_error_rate=1.0, max_failures_per_offset=2)
        sleeps: list = []
        retrying = RetryingSource(injector.flaky(base), self._policy(sleeps, attempts=3))
        records = list(retrying.records())
        assert [r.offset for r in records] == list(range(6))

    def test_backoff_delays_follow_policy(self):
        base = IteratorEdgeSource([(0, 1)])
        injector = FaultInjector(seed=3, io_error_rate=1.0, max_failures_per_offset=2)
        sleeps: list = []
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.1, multiplier=2.0, max_delay=10.0,
            jitter=0.0, sleep=sleeps.append,
        )
        list(RetryingSource(injector.flaky(base), policy).records())
        failures = injector.failures_for_offset(0)
        assert failures >= 1
        assert sleeps == [0.1 * 2.0**i for i in range(failures)]
