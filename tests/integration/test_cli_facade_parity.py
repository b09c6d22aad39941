"""CLI ``ingest``/``query`` against the ``repro.api`` facade: the same
options must give the same sketches, stats, dead letters and scores,
serial and sharded."""

from __future__ import annotations

import json

import pytest

from repro import SketchConfig, api
from repro.cli import _ingest_stat_rows, main
from repro.obs import snapshot
from repro.stream import FileDeadLetters, StreamGuard

#: Stats that time the run rather than describe what it consumed.
TIMING_STATS = {"last_checkpoint_age_seconds", "merge_seconds"}


def _stat_table(out: str) -> dict:
    """The ``metric value`` rows of the ingest stats table."""
    lines = out.splitlines()
    rule = next(i for i, line in enumerate(lines) if line.startswith("---"))
    rows = {}
    for line in lines[rule + 1 :]:
        if not line.strip() or line.startswith("metrics:"):
            break
        key, value = line.split(None, 1)
        rows[key] = value.strip()
    return rows


def _counts(sample: dict) -> dict:
    """Counter and gauge series of a metrics snapshot, timing ones left out."""
    return {
        (entry["name"], json.dumps(series["labels"], sort_keys=True)): series["value"]
        for entry in sample["instruments"]
        if entry["type"] != "histogram" and "second" not in entry["name"]
        for series in entry["series"]
    }


@pytest.fixture()
def corpus(tmp_path, capsys):
    path = tmp_path / "hostile.txt"
    assert main(["casebook", "--write-corpus", str(path)]) == 0
    capsys.readouterr()
    return path


@pytest.mark.parametrize("workers", [1, 2])
def test_cli_ingest_matches_the_facade(corpus, tmp_path, capsys, monkeypatch, workers):
    cli_dir, api_dir = tmp_path / "cli", tmp_path / "api"
    cli_dead, api_dead = tmp_path / "cli-dead.jsonl", tmp_path / "api-dead.jsonl"
    metrics_out = tmp_path / "metrics.jsonl"
    code = main(
        [
            "ingest", str(corpus), "--k", "32", "--workers", str(workers),
            "--case-policy", "normalize", "--hub-degree-limit", "6",
            "--dead-letter", str(cli_dead), "--metrics-out", str(metrics_out),
            "--checkpoint-dir", str(cli_dir), "--checkpoint-every", "10",
        ]
    )
    assert code == 0
    cli_stats = _stat_table(capsys.readouterr().out)

    # The facade has no hub-limit knob: its guard reaches the CLI's
    # limit through StreamGuard's default.
    monkeypatch.setitem(StreamGuard.__init__.__kwdefaults__, "hub_degree_limit", 6)
    report = api.ingest(
        corpus, config=SketchConfig(k=32), workers=workers, policies="normalize",
        checkpoint_dir=api_dir, checkpoint_every=10,
    )
    with FileDeadLetters(api_dead) as sink:
        for letter in report.runner.dead_letters.entries:
            sink.record(letter)

    assert api.open_engine(cli_dir).store.fingerprint() == (
        api.open_engine(api_dir).store.fingerprint()
    )
    api_stats = {str(k): str(v) for k, v in _ingest_stat_rows(dict(report.stats))}
    assert report.stats["dead_lettered"] > 0 and report.stats["normalized"] > 0
    assert {k: v for k, v in cli_stats.items() if k not in TIMING_STATS} == {
        k: v for k, v in api_stats.items() if k not in TIMING_STATS
    }
    assert cli_dead.read_bytes() == api_dead.read_bytes()
    final_sample = json.loads(metrics_out.read_text().splitlines()[-1])
    assert _counts(final_sample) == _counts(snapshot(report.runner.metrics))


def test_query_source_scores_like_ingest_then_query(tmp_path, capsys):
    """``query <file>`` ingests as ``ingest`` does: self-loops, tabs,
    CRLF and op-token lines included."""
    source = tmp_path / "g.txt"
    lines = [f"{u} {(u * 7 + 3) % 40}" for u in range(120)]
    lines += ["5 5", "6\t9", "7 11\r", "+ 8 12", "add 9 13", "# comment", ""]
    source.write_bytes("\n".join(lines).encode() + b"\n")
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0 3\n5 9\n6 9\n8 12\n1 39\n")
    checkpoints = tmp_path / "ck"

    def csv(*argv):
        assert main(["query", *argv, "--k", "32", "--pairs-file", str(pairs),
                     "--format", "csv", "--measure", "adamic_adar"]) == 0
        return capsys.readouterr().out

    direct = csv(str(source))
    assert main(["ingest", str(source), "--k", "32",
                 "--checkpoint-dir", str(checkpoints)]) == 0
    capsys.readouterr()
    assert direct == csv("--checkpoint-dir", str(checkpoints))
    assert len(direct.splitlines()) == 6
