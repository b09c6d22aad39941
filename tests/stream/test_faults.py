"""FaultInjector determinism and the composed crash-recovery property.

The headline acceptance test lives here: for injected fault schedules
(transient I/O errors + corrupt lines + duplicates + reordering + a
kill at an arbitrary record), a resumed runner's final sketch state is
bit-identical to an uninterrupted single-pass run over the same
mutated stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MinHashLinkPredictor, SketchConfig
from repro.errors import ConfigurationError
from repro.graph.generators import erdos_renyi
from repro.stream import (
    CheckpointManager,
    FaultInjector,
    IteratorEdgeSource,
    MemoryDeadLetters,
    RetryingSource,
    RetryPolicy,
    StreamRunner,
)


def clean_stream(n_edges=300, seed=21):
    return [(e.u, e.v) for e in erdos_renyi(50, n_edges, seed=seed)]


def no_sleep_policy(attempts=6):
    return RetryPolicy(max_attempts=attempts, base_delay=0.0, jitter=0.0, sleep=lambda _: None)


class TestDeterminism:
    def test_mutation_is_reproducible(self):
        stream = clean_stream()
        injector_a = FaultInjector(seed=5, corrupt_rate=0.1, duplicate_rate=0.1, swap_rate=0.1)
        injector_b = FaultInjector(seed=5, corrupt_rate=0.1, duplicate_rate=0.1, swap_rate=0.1)
        assert injector_a.mutate_records(stream) == injector_b.mutate_records(stream)

    def test_different_seeds_differ(self):
        stream = clean_stream()
        a = FaultInjector(seed=1, corrupt_rate=0.2).mutate_records(stream)
        b = FaultInjector(seed=2, corrupt_rate=0.2).mutate_records(stream)
        assert a != b

    def test_mutation_leaves_input_untouched(self):
        stream = clean_stream(50)
        copy = list(stream)
        FaultInjector(seed=3, corrupt_rate=0.5, duplicate_rate=0.5).mutate_records(stream)
        assert stream == copy

    def test_duplicates_grow_the_stream(self):
        stream = clean_stream(200)
        mutated = FaultInjector(seed=4, duplicate_rate=0.3).mutate_records(stream)
        assert len(mutated) > len(stream)

    def test_corrupt_lines_are_strings(self):
        mutated = FaultInjector(seed=6, corrupt_rate=1.0).mutate_records(clean_stream(30))
        assert all(isinstance(record, str) for record in mutated)

    def test_flaky_failure_schedule_is_per_offset_stable(self):
        injector = FaultInjector(seed=8, io_error_rate=0.5, max_failures_per_offset=3)
        first = [injector.failures_for_offset(o) for o in range(100)]
        second = [injector.failures_for_offset(o) for o in range(100)]
        assert first == second
        assert any(first) and not all(first)

    def test_rates_validated(self):
        with pytest.raises(ConfigurationError):
            FaultInjector(corrupt_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultInjector(max_failures_per_offset=0)


class TestComposedCrashRecovery:
    """The acceptance property, under full chaos."""

    CONFIG = dict(k=32, seed=17)

    def _uninterrupted_reference(self, mutated):
        runner = StreamRunner(
            IteratorEdgeSource(mutated),
            config=SketchConfig(**self.CONFIG),
            self_loops="quarantine",
        )
        runner.run()
        return runner

    @pytest.mark.parametrize("kill_at", [25, 150, 275])
    def test_chaos_run_resumes_bit_identical(self, tmp_path, kill_at):
        injector = FaultInjector(
            seed=11,
            corrupt_rate=0.05,
            duplicate_rate=0.08,
            swap_rate=0.10,
            io_error_rate=0.05,
            max_failures_per_offset=2,
        )
        mutated = injector.mutate_records(clean_stream())
        reference = self._uninterrupted_reference(mutated)

        manager = CheckpointManager(tmp_path / f"kill{kill_at}", keep=3)

        def chaotic_source():
            # Fresh flaky wrapper per runner: transport faults replay
            # identically because the schedule is offset-derived.
            return RetryingSource(
                injector.flaky(IteratorEdgeSource(mutated)), no_sleep_policy()
            )

        victim = StreamRunner(
            chaotic_source(),
            config=SketchConfig(**self.CONFIG),
            checkpoint_manager=manager,
            checkpoint_every=40,
        )
        victim.run(max_records=kill_at)  # the crash: no final checkpoint

        survivor = StreamRunner(
            chaotic_source(),
            config=SketchConfig(**self.CONFIG),
            checkpoint_manager=manager,
            checkpoint_every=40,
        )
        survivor.resume()
        survivor.run()

        assert survivor.predictor.vertex_count == reference.predictor.vertex_count
        for vertex in reference.predictor.export_arrays().vertex_ids.tolist():
            sketch = reference.predictor.sketch(vertex)
            survivor_sketch = survivor.predictor.sketch(vertex)
            assert np.array_equal(sketch.values, survivor_sketch.values)
            assert np.array_equal(sketch.witnesses, survivor_sketch.witnesses)
            assert survivor.predictor.degree(vertex) == reference.predictor.degree(vertex)

        # Counters cover the tail exactly: reference counters over the
        # full stream equal victim's prefix + survivor's replayed tail
        # from the resume offset.
        assert survivor.offset == reference.offset == len(mutated)
        assert survivor.source_exhausted

    def test_dead_letter_counts_match_uninterrupted_run(self, tmp_path):
        injector = FaultInjector(seed=23, corrupt_rate=0.15, duplicate_rate=0.05)
        mutated = injector.mutate_records(clean_stream())
        reference = self._uninterrupted_reference(mutated)

        manager = CheckpointManager(tmp_path, keep=2)
        victim = StreamRunner(
            IteratorEdgeSource(mutated),
            config=SketchConfig(**self.CONFIG),
            checkpoint_manager=manager,
            checkpoint_every=50,
        )
        victim.run(max_records=123)
        survivor_sink = MemoryDeadLetters()
        survivor = StreamRunner(
            IteratorEdgeSource(mutated),
            config=SketchConfig(**self.CONFIG),
            checkpoint_manager=manager,
            dead_letters=survivor_sink,
        )
        survivor.resume()
        survivor.run()

        # Prefix (victim, up to its last checkpoint at offset 100) plus
        # the survivor's tail must partition the reference's letters.
        resume_offset = 100
        reference_sink = reference.dead_letters
        prefix_letters = [e for e in reference_sink.entries if e.offset < resume_offset]
        tail_letters = [e for e in reference_sink.entries if e.offset >= resume_offset]
        assert survivor_sink.total == len(tail_letters)
        assert survivor_sink.entries == tail_letters
        assert victim.dead_letters.total >= len(prefix_letters)
