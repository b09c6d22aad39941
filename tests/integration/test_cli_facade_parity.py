"""The CLI against the ``repro.api`` facade: ``ingest``/``query`` give
the same sketches, stats, dead letters and scores, serial and sharded;
``evaluate`` prints ``api.evaluate``'s numbers; and every verb reads a
file through the one record contract ``query`` uses."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro import SketchConfig, api
from repro.cli import _ingest_stat_rows, main
from repro.errors import ReproError
from repro.eval.reporting import format_cell
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


def _graph_lines(count=400, vertices=60, seed=5):
    rng = random.Random(seed)
    return [f"{rng.randrange(vertices)} {rng.randrange(vertices)}" for _ in range(count)]


def _evaluate_rows(out: str) -> dict:
    """``measure -> [MAE, RMSE, mean rel err]`` cells of the evaluate table."""
    lines = out.splitlines()
    rule = next(i for i, line in enumerate(lines) if line.startswith("---"))
    return {line.split()[0]: line.split()[1:] for line in lines[rule + 1 :] if line.strip()}


@pytest.mark.parametrize("kind", ["registry", "file"])
def test_cli_evaluate_prints_the_facade_numbers(kind, tmp_path, capsys):
    if kind == "registry":
        source = "synth-grqc"
    else:
        source = str(tmp_path / "g.txt")
        Path(source).write_text("\n".join(_graph_lines()) + "\n")
    argv = ["evaluate", source, "--k", "32", "--pairs", "40", "--seed", "3"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "40 two-hop pairs" in out.splitlines()[0]
    profile = api.evaluate(
        source, config=SketchConfig(k=32, seed=3), pairs=40, seed=3,
        measures=("jaccard", "common_neighbors", "adamic_adar"),
    )
    assert _evaluate_rows(out) == {
        measure: [format_cell(summary[key]) for key in ("mae", "rmse", "mre")]
        for measure, summary in profile.items()
    }


#: The five evaluation verbs, each on a small graph.
VERBS = [
    ["stats"],
    ["predict", "--k", "16", "--pairs", "20"],
    ["evaluate", "--k", "16", "--pairs", "20"],
    ["discover", "--k", "16", "--min-degree", "2"],
    ["triangles", "--k", "16", "--exact"],
]


def test_op_prefixed_file_reads_like_its_plain_twin(tmp_path, capsys, monkeypatch):
    """``+``/``add`` lines are adds for every verb, as for ``query``:
    each prints exactly the table of the unprefixed file."""
    plain = _graph_lines()
    prefixed = [
        ("+ " if index % 3 == 0 else "add " if index % 5 == 0 else "") + line
        for index, line in enumerate(plain)
    ]
    for name, lines in (("plain", plain), ("ops", prefixed)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "g.txt").write_text("\n".join(["# graph", *lines, "7 7"]) + "\n")
    outputs = {}
    for name in ("plain", "ops"):
        monkeypatch.chdir(tmp_path / name)
        assert main(["query", "g.txt", "--k", "16", "--vertex", "1"]) == 0
        capsys.readouterr()  # its table times the query
        for verb in VERBS:
            assert main([verb[0], "g.txt", *verb[1:]]) == 0, verb
        outputs[name] = capsys.readouterr().out
    assert outputs["ops"] == outputs["plain"]


def test_undecodable_file_stops_every_verb_like_query(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"1 2\n3 \xff4\n5 6\n")
    assert main(["query", str(path), "--k", "8", "--vertex", "1"]) == 2
    [expected] = capsys.readouterr().err.splitlines()
    assert "(line 2)" in expected and "non-ASCII" in expected
    for verb in VERBS:
        assert main([verb[0], str(path), *verb[1:]]) == 2, verb
        assert capsys.readouterr().err.splitlines() == [expected]


def test_a_directory_is_refused_up_front(tmp_path, capsys):
    with pytest.raises(ReproError, match="is a directory"):
        api._resolve_source(tmp_path, 0)
    for argv in (["predict", str(tmp_path)], ["ingest", str(tmp_path), "--max-retries", "5"]):
        assert main(argv) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"error: {str(tmp_path)!r} is a directory, not an edge-list file"
