"""Tests pinning the ``repro.api`` facade as the public surface."""

from __future__ import annotations

import numpy as np
import pytest

import repro
import repro.api
from repro import IngestReport, SketchConfig, build_predictor, evaluate, ingest, open_engine
from repro.core import BiasedMinHashLinkPredictor, MinHashLinkPredictor, merge_shards
from repro.core.persistence import load_predictor
from repro.errors import ConfigurationError, ReproError
from repro.serve import QueryEngine
from repro.stream.checkpoint import CheckpointManager

EDGES = [(u % 60, (u * 7 + 1) % 60) for u in range(600)] + [
    (u % 60, (u + 1) % 60) for u in range(600)
]


@pytest.fixture()
def edge_file(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in EDGES))
    return str(path)


class TestSurface:
    def test_api_all_is_the_documented_surface(self):
        # The facade's stable contract: exactly these names, no drift.
        assert repro.api.__all__ == [
            "IngestReport",
            "StreamRecord",
            "build_predictor",
            "evaluate",
            "ingest",
            "open_engine",
            "serve",
        ]

    def test_facade_reexported_from_package_root(self):
        for name in repro.api.__all__:
            assert getattr(repro, name) is getattr(repro.api, name)
            assert name in repro.__all__

    def test_import_surface_check(self):
        # The CI smoke: importable, and __all__ members all resolve.
        for name in repro.api.__all__:
            assert hasattr(repro.api, name)


class TestBuildPredictor:
    def test_config_first_spelling(self):
        predictor = build_predictor(SketchConfig(k=8, seed=1))
        assert isinstance(predictor, MinHashLinkPredictor)
        assert predictor.config.k == 8

    def test_method_keyword(self):
        predictor = build_predictor(SketchConfig(k=8), method="biased")
        assert isinstance(predictor, BiasedMinHashLinkPredictor)

    def test_legacy_method_first_spelling_still_works(self):
        predictor = build_predictor("minhash", SketchConfig(k=8))
        assert isinstance(predictor, MinHashLinkPredictor)

    def test_defaults_to_minhash_default_config(self):
        assert isinstance(build_predictor(), MinHashLinkPredictor)

    def test_positional_config_with_extra_positionals_rejected(self):
        with pytest.raises(ConfigurationError):
            build_predictor(SketchConfig(k=8), 100)


class TestIngest:
    def test_serial_ingest_from_file(self, edge_file):
        report = ingest(edge_file, config=SketchConfig(k=8, seed=2))
        assert isinstance(report, IngestReport)
        assert report.records_ok == len(EDGES)
        assert report.predictor.vertex_count == 60

    def test_sharded_ingest_is_bit_identical(self, edge_file):
        config = SketchConfig(k=8, seed=2)
        serial = ingest(edge_file, config=config)
        sharded = ingest(edge_file, config=config, workers=3)
        ours = sharded.predictor.export_arrays()
        theirs = serial.predictor.export_arrays()
        for name in ("vertex_ids", "values", "witnesses", "update_counts", "degrees"):
            assert np.array_equal(getattr(ours, name), getattr(theirs, name)), name

    def test_ingest_from_edge_list(self):
        report = ingest(EDGES[:100], config=SketchConfig(k=8))
        assert report.records_ok == 100

    def test_ingest_checkpointed_and_resume(self, edge_file, tmp_path):
        config = SketchConfig(k=8, seed=2)
        ckpt = tmp_path / "ck"
        ingest(edge_file, config=config, checkpoint_dir=ckpt, checkpoint_every=100,
               max_records=500)
        resumed = ingest(edge_file, config=config, checkpoint_dir=ckpt,
                         checkpoint_every=100, resume=True)
        full = ingest(edge_file, config=config)
        assert np.array_equal(
            resumed.predictor.export_arrays().values,
            full.predictor.export_arrays().values,
        )

    def test_unknown_source_raises(self):
        with pytest.raises(ReproError):
            ingest("no-such-dataset-or-file", config=SketchConfig(k=8))

    def test_resume_needs_a_checkpoint_dir(self, edge_file):
        config = SketchConfig(k=8)
        for workers in (1, 2):
            with pytest.raises(ConfigurationError, match="checkpoint"):
                ingest(edge_file, config=config, workers=workers, resume=True)
        with pytest.raises(ConfigurationError, match="checkpoint"):
            repro.api.serve(source=edge_file, config=config, resume=True, port=0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_checkpoint_every_without_a_directory_is_ignored(self, edge_file, workers):
        config = SketchConfig(k=8, seed=2)
        report = ingest(edge_file, config=config, workers=workers, checkpoint_every=100)
        assert report.records_ok == len(EDGES)
        assert report.stats["checkpoints_written"] == 0
        assert report.predictor.export_arrays().values.tobytes() == (
            ingest(edge_file, config=config).predictor.export_arrays().values.tobytes()
        )

    @staticmethod
    def _corrupt_newest(edge_file, ckpt):
        ingest(edge_file, config=SketchConfig(k=8, seed=2), checkpoint_dir=ckpt,
               checkpoint_every=300, max_records=900)
        newest = CheckpointManager(ckpt).generations()[0]
        path = ckpt / f"checkpoint-{newest}.npz"
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

    def test_resume_counts_a_corrupt_generation(self, edge_file, tmp_path):
        ckpt = tmp_path / "ck"
        self._corrupt_newest(edge_file, ckpt)
        report = ingest(edge_file, config=SketchConfig(k=8, seed=2), checkpoint_dir=ckpt,
                        checkpoint_every=300, resume=True)
        assert report.runner.resumed_from is not None
        assert report.runner.metrics.get("checkpoint_corrupt_generations_total").value == 1

    def test_live_serve_resume_counts_a_corrupt_generation(self, edge_file, tmp_path):
        ckpt = tmp_path / "ck"
        self._corrupt_newest(edge_file, ckpt)
        server = repro.api.serve(source=edge_file, config=SketchConfig(k=8, seed=2),
                                 checkpoint_dir=ckpt, resume=True, port=0)
        assert server.runner.resumed_from is not None
        assert server.metrics.get("checkpoint_corrupt_generations_total").value == 1


class TestOpenEngine:
    def test_from_warm_predictor(self, edge_file):
        report = ingest(edge_file, config=SketchConfig(k=8, seed=2))
        engine = open_engine(report.predictor)
        assert isinstance(engine, QueryEngine)
        assert engine.score_many([(0, 1)], "jaccard").shape == (1,)

    def test_from_serial_checkpoint_dir(self, edge_file, tmp_path):
        ckpt = tmp_path / "ck"
        report = ingest(edge_file, config=SketchConfig(k=8, seed=2),
                        checkpoint_dir=ckpt, checkpoint_every=100)
        engine = open_engine(ckpt)
        direct = open_engine(report.predictor)
        assert np.array_equal(
            engine.score_many([(0, 1), (3, 9)], "jaccard"),
            direct.score_many([(0, 1), (3, 9)], "jaccard"),
        )

    def test_from_sharded_checkpoint_dir(self, edge_file, tmp_path):
        ckpt = tmp_path / "ck"
        report = ingest(edge_file, config=SketchConfig(k=8, seed=2), workers=3,
                        checkpoint_dir=ckpt, checkpoint_every=100)
        engine = open_engine(ckpt)
        direct = open_engine(report.predictor)
        assert np.array_equal(
            engine.score_many([(0, 1), (3, 9)], "adamic_adar"),
            direct.score_many([(0, 1), (3, 9)], "adamic_adar"),
        )

    def test_engine_options_pass_through(self, edge_file):
        report = ingest(edge_file, config=SketchConfig(k=8, seed=2))
        engine = open_engine(report.predictor, batch_size=16)
        assert engine.batch_size == 16

    @pytest.mark.parametrize("workers", [1, 2])
    def test_checkpoint_dir_packs_like_the_predictor_route(
        self, edge_file, tmp_path, workers
    ):
        """open_engine packs straight from the verified arrays; the
        answers equal those of an engine over restored predictors."""
        ckpt = tmp_path / "ck"
        ingest(edge_file, config=SketchConfig(k=16, seed=3), workers=workers,
               checkpoint_dir=ckpt, checkpoint_every=150)
        directories = sorted(ckpt.glob("shard-*")) or [ckpt]
        restored = [CheckpointManager(d).load_latest().state for d in directories]
        reference = QueryEngine(merge_shards(restored))
        engine = open_engine(ckpt)
        assert engine.predictor is None  # no predictor was built
        assert engine.store.fingerprint() == reference.store.fingerprint()
        pairs = [(u, v) for u in range(0, 60, 3) for v in range(1, 60, 7)]
        for measure in ("jaccard", "common_neighbors", "adamic_adar"):
            assert engine.score_many(pairs, measure).tolist() == (
                reference.score_many(pairs, measure).tolist()
            )
        for u in (0, 7, 31):
            assert engine.top_k(u, "jaccard", k=5) == reference.top_k(u, "jaccard", k=5)

    def test_corrupt_newest_generation_serves_the_previous_one(
        self, edge_file, tmp_path
    ):
        ckpt = tmp_path / "ck"
        ingest(edge_file, config=SketchConfig(k=16, seed=3),
               checkpoint_dir=ckpt, checkpoint_every=300)
        manager = CheckpointManager(ckpt)
        newest, previous = manager.generations()[:2]
        expected = QueryEngine(
            load_predictor(ckpt / f"checkpoint-{previous}.npz")
        ).store.fingerprint()
        path = ckpt / f"checkpoint-{newest}.npz"
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        engine = open_engine(ckpt)
        assert engine.store.fingerprint() == expected
        assert engine.metrics.get("checkpoint_corrupt_generations_total").value == 1

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(ReproError):
            open_engine(tmp_path / "nowhere")

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(ReproError):
            open_engine(tmp_path)


class TestEvaluate:
    def test_profile_shape(self, edge_file):
        profile = evaluate(edge_file, config=SketchConfig(k=32), pairs=40,
                           measures=("jaccard",))
        assert set(profile) == {"jaccard"}
        assert {"mae", "rmse", "mre"} <= set(profile["jaccard"])

    def test_exact_method_has_zero_error(self, edge_file):
        profile = evaluate(edge_file, method="exact", pairs=40, measures=("jaccard",))
        assert profile["jaccard"]["mae"] == pytest.approx(0.0)

    def test_op_prefixed_adds_match_plain_lines(self, edge_file, tmp_path):
        # The same grammar as ingest: "+"/"add" lines are adds, not
        # unparseable records skipped by the evaluation.
        prefixed = tmp_path / "prefixed.txt"
        prefixed.write_text(
            "".join(
                f"{'+' if i % 2 else 'add'} {u} {v}\n" for i, (u, v) in enumerate(EDGES)
            )
        )
        options = dict(config=SketchConfig(k=32), pairs=40)
        assert evaluate(str(prefixed), **options) == evaluate(edge_file, **options)
