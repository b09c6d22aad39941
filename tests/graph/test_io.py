"""Tests for SNAP-format edge-list I/O.

Files are read the way every verb reads them: line by line from a
:class:`FileEdgeSource`, each line parsed by ``parse_stream_record``;
the evaluation verbs take the accepted adds through the admission
contract (``repro.api._accepted_adds``), and pair lists go through
``read_pairs``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import _accepted_adds
from repro.errors import DeadLetterError, StreamFormatError
from repro.graph import Edge, VertexRelabeler, write_edge_list
from repro.graph.io import parse_stream_record, read_pairs
from repro.stream.sources import FileEdgeSource, SourceRecord


def _edges(path, relabeler=None):
    """Every data line of ``path`` as an :class:`Edge`, two-field lines
    timestamped by their data-line index (the source offset)."""
    return [
        parse_stream_record(
            record.value,
            line_number=record.line_number,
            default_timestamp=float(record.offset),
            relabeler=relabeler,
        ).edge
        for record in FileEdgeSource(path).records()
    ]


def _adds(path, policy="strict"):
    """The accepted adds of ``path`` as ``(u, v)`` tuples."""
    us, vs = _accepted_adds(path, 0, policy=policy)
    return list(zip(us.tolist(), vs.tolist()))


class TestReading:
    def test_two_column_rows_timestamped_by_index(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("# header comment\n0\t1\n1\t2\n\n2\t3\n")
        assert _edges(path) == [Edge(0, 1, 0.0), Edge(1, 2, 1.0), Edge(2, 3, 2.0)]
        assert _adds(path) == [(0, 1), (1, 2), (2, 3)]

    def test_three_column_rows_carry_timestamps(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 1 100.5\n1 2 200.5\n")
        assert _edges(path) == [Edge(0, 1, 100.5), Edge(1, 2, 200.5)]

    def test_percent_comments_skipped(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("% matrix-market style comment\n0 1\n")
        assert _adds(path) == [(0, 1)]
        assert read_pairs(["% comment", "0 1"]).tolist() == [[0, 1]]

    def test_self_loops_dropped_by_default(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 0\n0 1\n")
        assert _adds(path) == [(0, 1)]
        assert len(_edges(path)) == 2  # the parser itself keeps them
        assert read_pairs(path.read_text().splitlines()).tolist() == [[0, 0], [0, 1]]

    def test_malformed_field_count_reports_line(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 1\n0 1 2 3\n")
        with pytest.raises(DeadLetterError, match=r"\(line 2\)") as excinfo:
            _adds(path)
        assert excinfo.value.reason == "bad_arity"

    def test_non_integer_vertex_reports_line(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("alice bob\n")
        with pytest.raises(DeadLetterError, match=r"\(line 1\).*VertexRelabeler"):
            _adds(path)

    def test_negative_vertex_rejected(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("-1 2\n")
        with pytest.raises(DeadLetterError) as excinfo:
            _adds(path)
        assert excinfo.value.reason == "negative_vertex"

    def test_bad_timestamp_rejected(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 1 yesterday\n")
        with pytest.raises(DeadLetterError, match="timestamp"):
            _adds(path)

    def test_labelled_data_via_relabeler(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("alice bob\nbob carol\nalice carol\n")
        relabeler = VertexRelabeler()
        edges = _edges(path, relabeler=relabeler)
        assert [(e.u, e.v) for e in edges] == [(0, 1), (1, 2), (0, 2)]
        assert relabeler.decode(0) == "alice"

    def test_iter_is_lazy(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 1\n1 2\n")
        records = FileEdgeSource(path).records()
        assert next(records) == SourceRecord(0, "0 1", 1)
        records.close()


#: Every malformed-line class the strict reader raises on, with the
#: machine-readable reason the lenient paths must attach.
MALFORMED_LINES = [
    ("0", "bad_arity"),
    ("0 1 2 3", "bad_arity"),
    ("alice bob", "non_integer_vertex"),
    ("1.5 2.5", "non_integer_vertex"),
    ("1_0 2", "non_integer_vertex"),  # int() would read 10
    ("+5 2", "non_integer_vertex"),  # int() would read 5
    ("-1 2", "negative_vertex"),
    ("0 -9", "negative_vertex"),
    ("0 1 yesterday", "bad_timestamp"),
    ("0 1 nan", "nonfinite_timestamp"),
    ("0 1 inf", "nonfinite_timestamp"),
    ("0 1 -inf", "nonfinite_timestamp"),
    ("1,2", "mixed_delimiter"),
    ("1;2;3", "mixed_delimiter"),
    ("1|2", "mixed_delimiter"),
    ("﻿0 1", "bad_encoding"),  # BOM from a shell pipeline
    ("0 1\x00", "bad_encoding"),  # NUL from a truncated binary write
    ("５ ６", "bad_encoding"),  # fullwidth digits (int() reads them)
]


class TestLenientParsing:
    """Each malformed class: its reason slug and line number from the
    parser, the pair reader and the admission contract, quarantined or
    strict."""

    @pytest.mark.parametrize("line,reason", MALFORMED_LINES)
    def test_parse_edge_line_tags_reason(self, line, reason):
        with pytest.raises(StreamFormatError) as excinfo:
            parse_stream_record(line, line_number=7)
        assert excinfo.value.reason == reason
        assert excinfo.value.line_number == 7
        with pytest.raises(StreamFormatError) as excinfo:
            read_pairs(["# pairs", "0 1", line])
        assert (excinfo.value.reason, excinfo.value.line_number) == (reason, 3)

    @pytest.mark.parametrize("line,reason", MALFORMED_LINES)
    def test_skip_mode_drops_each_malformed_class(self, tmp_path, line, reason):
        path = tmp_path / "graph.txt"
        path.write_text(f"0 1\n{line}\n2 3\n")
        assert _adds(path, policy="quarantine") == [(0, 1), (2, 3)]
        with pytest.raises(DeadLetterError, match=r"\(line 2\)") as excinfo:
            _adds(path)
        assert excinfo.value.reason == reason

    @pytest.mark.parametrize("line,reason", MALFORMED_LINES)
    def test_scan_yields_typed_diagnostics(self, tmp_path, line, reason):
        from repro import api

        path = tmp_path / "graph.txt"
        path.write_text(f"0 1\n{line}\n2 3\n")
        report = api.ingest(path)
        assert report.records_ok == 2
        [letter] = report.runner.dead_letters.entries
        assert (letter.reason, letter.offset, letter.line_number, letter.raw) == (
            reason, 1, 2, line.strip(),
        )

    def test_scan_skips_dropped_self_loops_silently(self, tmp_path):
        from repro import api

        path = tmp_path / "graph.txt"
        path.write_text("0 0\n1 2\n")
        assert _adds(path) == [(1, 2)]
        report = api.ingest(path, self_loops="drop")
        assert (report.records_ok, report.stats["dropped"]) == (1, 1)
        assert report.runner.dead_letters.entries == []

    def test_relabeler_makes_labels_wellformed(self):
        record = parse_stream_record("alice bob", relabeler=VertexRelabeler())
        assert record.edge == Edge(0, 1, 0.0)


class TestReadPairs:
    def test_pairs_with_comments_and_blank_lines(self):
        pairs = read_pairs(["# header", "1 2", "", "3\t4 99.5", "  5 6  ", "% tail"])
        assert pairs.dtype == np.int64
        assert pairs.tolist() == [[1, 2], [3, 4], [5, 6]]

    def test_empty_input_is_an_empty_batch(self):
        assert read_pairs([]).shape == (0, 2)
        assert read_pairs(["# only a comment"]).shape == (0, 2)

    def test_lines_the_bulk_parser_leaves_are_parsed_one_by_one(self):
        big = 2**63 - 1  # 19 digits: beyond the bulk parser's 18
        lines = ["1 2", "+ 3 4", f"add {big} 5", "6 7 1e3"]
        assert read_pairs(lines).tolist() == [[1, 2], [3, 4], [big, 5], [6, 7]]

    @pytest.mark.parametrize("token", ["-", "delete", "del"])
    def test_a_delete_is_no_pair(self, token):
        with pytest.raises(StreamFormatError) as excinfo:
            read_pairs(["1 2", f"{token} 3 4"])
        assert (excinfo.value.reason, excinfo.value.line_number) == ("bad_op", 2)

    def test_error_names_the_line_once(self):
        with pytest.raises(StreamFormatError) as excinfo:
            read_pairs(["x 2"])
        assert str(excinfo.value).startswith("line 1: vertex u: ")
        assert str(excinfo.value).count("line 1") == 1


class TestHostileTokens:
    """Python-int lenience and hostile bytes must not slip through."""

    def test_underscore_and_sign_are_not_vertex_ids(self):
        # int() happily parses both spellings; the contract does not.
        assert int("1_0") == 10 and int("+5") == 5
        for line in ("1_0 2", "+5 2"):
            with pytest.raises(StreamFormatError) as excinfo:
                parse_stream_record(line)
            assert excinfo.value.reason == "non_integer_vertex"

    def test_fullwidth_digits_tag_bad_encoding(self):
        assert int("５") == 5  # int() reads non-ASCII decimals
        with pytest.raises(StreamFormatError) as excinfo:
            parse_stream_record("５ ６")
        assert excinfo.value.reason == "bad_encoding"

    def test_nonfinite_timestamps_rejected(self):
        for token in ("nan", "inf", "-inf", "NaN", "Infinity"):
            with pytest.raises(StreamFormatError) as excinfo:
                parse_stream_record(f"0 1 {token}")
            assert excinfo.value.reason == "nonfinite_timestamp"

    def test_mixed_delimiters_only_flag_plausible_records(self):
        # A comma line that re-splits into a record is mixed_delimiter...
        with pytest.raises(StreamFormatError) as excinfo:
            parse_stream_record("3,4,100.5")
        assert excinfo.value.reason == "mixed_delimiter"
        # ...but one that re-splits into garbage stays bad_arity.
        with pytest.raises(StreamFormatError) as excinfo:
            parse_stream_record("a,b,c,d,e")
        assert excinfo.value.reason == "bad_arity"

    def test_relabeler_accepts_alien_delimiters_as_label_bytes(self):
        # Labelled data owns its characters: "a,b" is one opaque label.
        relabeler = VertexRelabeler()
        record = parse_stream_record("a,b c", relabeler=relabeler)
        assert relabeler.decode(record.u) == "a,b"

    def test_relabeler_still_rejects_control_characters(self):
        with pytest.raises(StreamFormatError) as excinfo:
            parse_stream_record("evil\x00label bob", relabeler=VertexRelabeler())
        assert excinfo.value.reason == "bad_encoding"

    def test_non_integer_message_still_points_at_relabeler(self):
        with pytest.raises(StreamFormatError, match="VertexRelabeler"):
            parse_stream_record("alice bob")


class TestWriting:
    def test_roundtrip_with_timestamps(self, tmp_path):
        path = tmp_path / "out.txt"
        edges = [Edge(0, 1, 10.0), Edge(1, 2, 20.0)]
        assert write_edge_list(path, edges) == 2
        assert _edges(path) == edges

    def test_roundtrip_without_timestamps(self, tmp_path):
        path = tmp_path / "out.txt"
        edges = [Edge(5, 6, 99.0)]
        write_edge_list(path, edges, include_timestamps=False)
        assert _edges(path) == [Edge(5, 6, 0.0)]

    def test_header_written_as_comments(self, tmp_path):
        path = tmp_path / "out.txt"
        write_edge_list(path, [Edge(0, 1)], header="my graph\ntwo lines")
        text = path.read_text()
        assert text.startswith("# my graph\n# two lines\n")
        assert _adds(path) == [(0, 1)]


class TestRelabeler:
    def test_first_appearance_order(self):
        r = VertexRelabeler()
        assert r.encode("z") == 0
        assert r.encode("a") == 1
        assert r.encode("z") == 0
        assert len(r) == 2

    def test_decode_roundtrip(self):
        r = VertexRelabeler()
        for label in ("x", "y", "z"):
            assert r.decode(r.encode(label)) == label

    def test_contains(self):
        r = VertexRelabeler()
        r.encode("present")
        assert "present" in r
        assert "absent" not in r

    def test_non_string_labels_coerced(self):
        r = VertexRelabeler()
        assert r.encode(42) == r.encode("42")
