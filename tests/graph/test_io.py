"""Tests for SNAP-format edge-list I/O."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, StreamFormatError
from repro.graph import (
    Edge,
    VertexRelabeler,
    iter_edge_list,
    read_edge_list,
    write_edge_list,
)
from repro.graph.io import parse_edge_line, scan_edge_list


class TestReading:
    def test_two_column_rows_timestamped_by_index(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("# header comment\n0\t1\n1\t2\n\n2\t3\n")
        edges = read_edge_list(path)
        assert edges == [Edge(0, 1, 0.0), Edge(1, 2, 1.0), Edge(2, 3, 2.0)]

    def test_three_column_rows_carry_timestamps(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 1 100.5\n1 2 200.5\n")
        edges = read_edge_list(path)
        assert edges == [Edge(0, 1, 100.5), Edge(1, 2, 200.5)]

    def test_percent_comments_skipped(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("% matrix-market style comment\n0 1\n")
        assert len(read_edge_list(path)) == 1

    def test_self_loops_dropped_by_default(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 0\n0 1\n")
        assert read_edge_list(path) == [Edge(0, 1, 0.0)]
        assert len(read_edge_list(path, allow_self_loops=True)) == 2

    def test_malformed_field_count_reports_line(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 1\n0 1 2 3\n")
        with pytest.raises(StreamFormatError, match="line 2"):
            read_edge_list(path)

    def test_non_integer_vertex_reports_line(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("alice bob\n")
        with pytest.raises(StreamFormatError, match="VertexRelabeler"):
            read_edge_list(path)

    def test_negative_vertex_rejected(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("-1 2\n")
        with pytest.raises(StreamFormatError):
            read_edge_list(path)

    def test_bad_timestamp_rejected(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 1 yesterday\n")
        with pytest.raises(StreamFormatError, match="timestamp"):
            read_edge_list(path)

    def test_labelled_data_via_relabeler(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("alice bob\nbob carol\nalice carol\n")
        relabeler = VertexRelabeler()
        edges = read_edge_list(path, relabeler=relabeler)
        assert [(e.u, e.v) for e in edges] == [(0, 1), (1, 2), (0, 2)]
        assert relabeler.decode(0) == "alice"

    def test_iter_is_lazy(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 1\n1 2\n")
        iterator = iter_edge_list(path)
        assert next(iterator) == Edge(0, 1, 0.0)


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
    """The on_error="skip" mode and the diagnostics generator."""

    @pytest.mark.parametrize("line,reason", MALFORMED_LINES)
    def test_parse_edge_line_tags_reason(self, line, reason):
        with pytest.raises(StreamFormatError) as excinfo:
            parse_edge_line(line, line_number=7)
        assert excinfo.value.reason == reason
        assert excinfo.value.line_number == 7

    @pytest.mark.parametrize("line,reason", MALFORMED_LINES)
    def test_skip_mode_drops_each_malformed_class(self, tmp_path, line, reason):
        path = tmp_path / "graph.txt"
        path.write_text(f"0 1\n{line}\n2 3\n")
        edges = read_edge_list(path, on_error="skip")
        assert [(e.u, e.v) for e in edges] == [(0, 1), (2, 3)]
        with pytest.raises(StreamFormatError):  # default stays strict
            read_edge_list(path)

    @pytest.mark.parametrize("line,reason", MALFORMED_LINES)
    def test_scan_yields_typed_diagnostics(self, tmp_path, line, reason):
        path = tmp_path / "graph.txt"
        path.write_text(f"0 1\n{line}\n2 3\n")
        diagnostics = list(scan_edge_list(path))
        assert len(diagnostics) == 3
        good, bad, tail = diagnostics
        assert good.record.edge == Edge(0, 1, 0.0) and good.error is None
        assert bad.record is None
        assert bad.error.reason == reason
        assert bad.error.line_number == 2
        assert bad.raw == line
        assert tail.record.edge == Edge(2, 3, 1.0)  # index not burned by the bad line

    def test_skip_mode_preserves_index_timestamps(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 1\nbroken\n2 3\n4 5\n")
        edges = read_edge_list(path, on_error="skip")
        assert [e.timestamp for e in edges] == [0.0, 1.0, 2.0]

    def test_scan_skips_dropped_self_loops_silently(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 0\n1 2\n")
        diagnostics = list(scan_edge_list(path))
        assert len(diagnostics) == 1
        assert diagnostics[0].record.edge == Edge(1, 2, 0.0)

    def test_unknown_on_error_rejected(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 1\n")
        with pytest.raises(ConfigurationError):
            read_edge_list(path, on_error="ignore")

    def test_relabeler_makes_labels_wellformed(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("alice bob\n")
        diagnostics = list(scan_edge_list(path, relabeler=VertexRelabeler()))
        assert diagnostics[0].record.edge == Edge(0, 1, 0.0)


class TestHostileTokens:
    """Python-int lenience and hostile bytes must not slip through."""

    def test_underscore_and_sign_are_not_vertex_ids(self):
        # int() happily parses both spellings; the contract does not.
        assert int("1_0") == 10 and int("+5") == 5
        for line in ("1_0 2", "+5 2"):
            with pytest.raises(StreamFormatError) as excinfo:
                parse_edge_line(line)
            assert excinfo.value.reason == "non_integer_vertex"

    def test_fullwidth_digits_tag_bad_encoding(self):
        assert int("５") == 5  # int() reads non-ASCII decimals
        with pytest.raises(StreamFormatError) as excinfo:
            parse_edge_line("５ ６")
        assert excinfo.value.reason == "bad_encoding"

    def test_nonfinite_timestamps_rejected(self):
        for token in ("nan", "inf", "-inf", "NaN", "Infinity"):
            with pytest.raises(StreamFormatError) as excinfo:
                parse_edge_line(f"0 1 {token}")
            assert excinfo.value.reason == "nonfinite_timestamp"

    def test_mixed_delimiters_only_flag_plausible_records(self):
        # A comma line that re-splits into a record is mixed_delimiter...
        with pytest.raises(StreamFormatError) as excinfo:
            parse_edge_line("3,4,100.5")
        assert excinfo.value.reason == "mixed_delimiter"
        # ...but one that re-splits into garbage stays bad_arity.
        with pytest.raises(StreamFormatError) as excinfo:
            parse_edge_line("a,b,c,d,e")
        assert excinfo.value.reason == "bad_arity"

    def test_relabeler_accepts_alien_delimiters_as_label_bytes(self):
        # Labelled data owns its characters: "a,b" is one opaque label.
        relabeler = VertexRelabeler()
        edge = parse_edge_line("a,b c", relabeler=relabeler)
        assert relabeler.decode(edge.u) == "a,b"

    def test_relabeler_still_rejects_control_characters(self):
        with pytest.raises(StreamFormatError) as excinfo:
            parse_edge_line("evil\x00label bob", relabeler=VertexRelabeler())
        assert excinfo.value.reason == "bad_encoding"

    def test_non_integer_message_still_points_at_relabeler(self):
        with pytest.raises(StreamFormatError, match="VertexRelabeler"):
            parse_edge_line("alice bob")


class TestWriting:
    def test_roundtrip_with_timestamps(self, tmp_path):
        path = tmp_path / "out.txt"
        edges = [Edge(0, 1, 10.0), Edge(1, 2, 20.0)]
        assert write_edge_list(path, edges) == 2
        assert read_edge_list(path) == edges

    def test_roundtrip_without_timestamps(self, tmp_path):
        path = tmp_path / "out.txt"
        edges = [Edge(5, 6, 99.0)]
        write_edge_list(path, edges, include_timestamps=False)
        assert read_edge_list(path) == [Edge(5, 6, 0.0)]

    def test_header_written_as_comments(self, tmp_path):
        path = tmp_path / "out.txt"
        write_edge_list(path, [Edge(0, 1)], header="my graph\ntwo lines")
        text = path.read_text()
        assert text.startswith("# my graph\n# two lines\n")
        assert len(read_edge_list(path)) == 1


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
