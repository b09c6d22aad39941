"""Tests for the ``query`` subcommand: the CLI face of the batch
query engine."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.graph import write_edge_list
from repro.graph.generators import erdos_renyi


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "graph.txt"
    write_edge_list(path, erdos_renyi(30, 90, seed=3))
    return path


@pytest.fixture()
def pairs_file(tmp_path):
    path = tmp_path / "pairs.txt"
    # Mixed batch: warm pairs, a self-pair, and an unseen vertex.
    path.write_text("0 1\n2 5\n7 7\n0 9999\n")
    return path


class TestParser:
    def test_query_defaults(self):
        args = build_parser().parse_args(["query", "synth-grqc", "--vertex", "3"])
        assert args.measure == "jaccard"
        assert args.format == "table"
        assert args.top == 10
        assert not args.no_prune


class TestPairFileScoring:
    def test_csv_covers_every_pair(self, graph_file, pairs_file, capsys):
        code = main(
            [
                "query", str(graph_file), "--k", "32",
                "--pairs-file", str(pairs_file), "--format", "csv",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "u,v,jaccard"
        assert len(lines) == 5  # header + 4 pairs
        unseen = lines[4].split(",")
        assert unseen[:2] == ["0", "9999"]
        assert float(unseen[2]) == 0.0  # unseen-vertex policy via the CLI

    def test_json_carries_scores_and_stats(self, graph_file, pairs_file, capsys):
        code = main(
            [
                "query", str(graph_file), "--k", "32",
                "--pairs-file", str(pairs_file),
                "--measure", "adamic_adar", "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["measure"] == "adamic_adar"
        assert len(payload["results"]) == 4
        assert payload["stats"]["pairs_scored"] == 4
        assert all(np.isfinite(r["score"]) for r in payload["results"])

    def test_output_file(self, graph_file, pairs_file, tmp_path):
        out = tmp_path / "scores.csv"
        code = main(
            [
                "query", str(graph_file), "--k", "16",
                "--pairs-file", str(pairs_file),
                "--format", "csv", "--output", str(out),
            ]
        )
        assert code == 0
        assert out.read_text().startswith("u,v,jaccard\n")

    def test_missing_pair_file_is_an_error(self, graph_file, capsys):
        code = main(
            ["query", str(graph_file), "--pairs-file", "/no/such/file.txt"]
        )
        assert code == 2
        assert "does not exist" in capsys.readouterr().err


class TestTopK:
    def test_top_k_table(self, graph_file, capsys):
        code = main(
            ["query", str(graph_file), "--k", "32", "--vertex", "0", "--top", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Batch scores" in out
        assert "Engine stats" in out

    def test_no_prune_matches_pruned(self, graph_file, capsys):
        base = ["query", str(graph_file), "--k", "32", "--vertex", "4",
                "--top", "5", "--format", "csv"]
        assert main(base) == 0
        pruned = capsys.readouterr().out
        assert main(base + ["--no-prune"]) == 0
        brute = capsys.readouterr().out
        assert pruned == brute  # exact-recall default banding


class TestSourceResolution:
    def test_checkpoint_source(self, graph_file, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        code = main(
            [
                "ingest", str(graph_file), "--k", "16",
                "--checkpoint-dir", str(ckpt), "--checkpoint-every", "20",
            ]
        )
        assert code == 0
        capsys.readouterr()
        generations = sorted(ckpt.glob("checkpoint-*.npz"))
        code = main(
            [
                "query", "--load-checkpoint", str(generations[-1]),
                "--vertex", "0", "--format", "csv",
            ]
        )
        assert code == 0

    def test_no_source_is_an_error(self, capsys):
        assert main(["query", "--vertex", "3"]) == 2
        assert "--load-checkpoint" in capsys.readouterr().err

    def test_junk_checkpoint_is_an_error(self, tmp_path, capsys):
        junk = tmp_path / "checkpoint-1.npz"
        np.savez(junk, noise=np.arange(3))
        for flag, target in (("--load-checkpoint", junk), ("--checkpoint-dir", tmp_path)):
            assert main(["query", flag, str(target), "--vertex", "0"]) == 2
            assert "not a predictor checkpoint archive" in capsys.readouterr().err

    def test_missing_checkpoint_is_an_error(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert main(["query", "--checkpoint-dir", str(missing), "--vertex", "0"]) == 2
        assert "is not a directory" in capsys.readouterr().err
        code = main(["query", "--load-checkpoint", str(missing / "x.npz"), "--vertex", "0"])
        assert code == 2
        assert "neither a predictor file nor a checkpoint directory" in (
            capsys.readouterr().err
        )

    def test_both_modes_is_an_error(self, graph_file, pairs_file, capsys):
        code = main(
            [
                "query", str(graph_file),
                "--pairs-file", str(pairs_file), "--vertex", "3",
            ]
        )
        assert code == 2
        assert "exactly one" in capsys.readouterr().err
