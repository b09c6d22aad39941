"""Tests for the ``ingest`` subcommand: the CLI face of the
fault-tolerant ingestion runtime."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.graph import Edge, write_edge_list
from repro.graph.generators import erdos_renyi
from repro.parallel.worker import shard_directory
from repro.stream import CheckpointManager


def write_stream(path, n_vertices=30, n_edges=80, seed=3):
    edges = erdos_renyi(n_vertices, n_edges, seed=seed)
    write_edge_list(path, edges)
    return edges


class TestParser:
    def test_ingest_defaults(self):
        args = build_parser().parse_args(["ingest", "synth-grqc"])
        assert args.checkpoint_every == 1000
        assert args.policy == "quarantine"
        assert args.max_retries == 5
        assert not args.resume


class TestIngest:
    def test_clean_file_reports_stats(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_stream(path)
        assert main(["ingest", str(path), "--k", "16"]) == 0
        out = capsys.readouterr().out
        assert "records_in" in out
        assert "dead_lettered" in out

    def test_dirty_file_quarantines_and_reports_reasons(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1\nbad line here\n2 2\n3 4\n")
        dead = tmp_path / "dead.jsonl"
        code = main(
            ["ingest", str(path), "--k", "8", "--dead-letter", str(dead)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dead_letter[non_integer_vertex]" in out
        assert "dead_letter[self_loop]" in out
        entries = [json.loads(line) for line in dead.read_text().splitlines()]
        assert {e["reason"] for e in entries} == {"non_integer_vertex", "self_loop"}

    def test_strict_policy_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1\nnot parseable\n")
        code = main(["ingest", str(path), "--k", "8", "--policy", "strict"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_checkpoint_resume_cycle(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_stream(path, n_edges=60)
        ckpt = tmp_path / "ckpt"
        # First run: consume 40 records with cadence 20 -> checkpoints.
        code = main(
            [
                "ingest", str(path), "--k", "16",
                "--checkpoint-dir", str(ckpt),
                "--checkpoint-every", "20",
                "--max-records", "40",
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert list(ckpt.glob("checkpoint-*.npz"))
        # Second run resumes and finishes the stream.
        code = main(
            [
                "ingest", str(path), "--k", "16",
                "--checkpoint-dir", str(ckpt),
                "--checkpoint-every", "20",
                "--resume",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "resumed from generation" in out

    def test_sharded_resume_prints_the_offsets_the_shards_resumed_from(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_stream(path, n_edges=80)
        ckpt = tmp_path / "ckpt"
        flags = ["--k", "16", "--workers", "2", "--checkpoint-dir", str(ckpt), "--checkpoint-every", "10"]
        assert main(["ingest", str(path), *flags, "--max-records", "45"]) == 0
        capsys.readouterr()
        expected = [
            CheckpointManager(shard_directory(ckpt, shard)).load_latest().offset
            for shard in range(2)
        ]
        assert min(expected) > 0
        assert main(["ingest", str(path), *flags, "--resume"]) == 0
        assert f"resumed 2 shards from offsets {expected}" in capsys.readouterr().out.splitlines()

    def test_resume_without_dir_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_stream(path)
        assert main(["ingest", str(path), "--resume"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_unknown_source_is_an_error(self, capsys):
        assert main(["ingest", "no-such-dataset"]) == 2
        assert "neither" in capsys.readouterr().err

    def test_dataset_source_works(self, capsys):
        assert main(["ingest", "synth-grqc", "--k", "16"]) == 0
        assert "source_exhausted" in capsys.readouterr().out
