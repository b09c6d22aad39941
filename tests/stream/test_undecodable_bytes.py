"""Undecodable bytes in an edge file are a ``bad_encoding`` dead letter,
judged by the policy like any other bad line, never an abort before the
guard sees the line."""

from __future__ import annotations

import pytest

from repro import SketchConfig, api
from repro.cli import main
from repro.errors import DeadLetterError
from repro.stream import read_dead_letters

CONFIG = SketchConfig(k=8, seed=1)


@pytest.fixture()
def bad_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"1 2\n3 \xff4\n5 6\n")
    return path


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("policies", [None, "quarantine", "normalize"])
def test_undecodable_line_is_one_dead_letter(bad_file, tmp_path, policies, workers):
    report = api.ingest(bad_file, config=CONFIG, workers=workers, policies=policies)
    assert report.records_ok == 2
    assert report.stats["dead_letter_reasons"] == {"bad_encoding": 1}
    # Normalize repairs nothing: a lone surrogate is not a stripped character.
    assert report.stats["normalized"] == 0
    [letter] = report.runner.dead_letters.entries
    assert (letter.reason, letter.offset, letter.line_number, letter.raw) == (
        "bad_encoding", 1, 2, "3 \udcff4",
    )
    clean = tmp_path / "clean.txt"
    clean.write_text("1 2\n5 6\n")
    assert report.predictor.export_arrays().values.tobytes() == (
        api.ingest(clean, config=CONFIG).predictor.export_arrays().values.tobytes()
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_strict_stops_at_line_two(bad_file, workers):
    with pytest.raises(DeadLetterError, match=r"\(line 2\)"):
        api.ingest(bad_file, config=CONFIG, workers=workers, policies="strict")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_dead_letter_file_holds_the_raw_text_escaped(bad_file, tmp_path, capsys, workers):
    dead = tmp_path / "dead.jsonl"
    argv = ["ingest", str(bad_file), "--k", "8", "--workers", workers]
    assert main(argv + ["--case-policy", "normalize", "--dead-letter", str(dead)]) == 0
    assert "dead_letter[bad_encoding]" in capsys.readouterr().out
    assert '"raw":"3 \\udcff4"' in dead.read_text(encoding="ascii")
    [letter] = read_dead_letters(dead)
    assert (letter.reason, letter.line_number, letter.raw) == ("bad_encoding", 2, "3 \udcff4")
    assert main(argv + ["--policy", "strict"]) == 2
    assert "(line 2)" in capsys.readouterr().err


@pytest.mark.parametrize("role", ["source", "pairs"])
def test_query_exits_2_with_one_error_line(bad_file, tmp_path, capsys, role):
    good = tmp_path / "good.txt"
    good.write_text("1 2\n2 3\n")
    source, pairs = (bad_file, good) if role == "source" else (good, bad_file)
    assert main(["query", str(source), "--k", "8", "--pairs-file", str(pairs)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "line 2" in err[0]
