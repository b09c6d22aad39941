"""Vertex ids are int64 end to end; a larger id is dead-lettered at parse.

An id of 2**63 or more once reached the guard's state and then crashed
the predictor (``OverflowError`` in the scalar ``update``, a batch
``ConfigurationError`` in ``update_block``).  It is now a
``non_integer_vertex`` record, for text lines and structured records
alike, serially and sharded, whatever deprecated ``batch_size`` the
facade is given.
"""

from __future__ import annotations

import pytest

from repro.api import ingest
from repro.core import MinHashLinkPredictor, SketchConfig
from repro.errors import StreamFormatError
from repro.graph.io import MAX_VERTEX_ID, parse_stream_record
from repro.stream.casebook import sketch_fingerprint
from repro.stream.policies import ContractViolation, coerce_stream_record
from repro.stream.sources import SourceRecord
from tests.stream.reference import fold_accepted

TOO_BIG = MAX_VERTEX_ID + 1
LINES = ["1 2", f"3 {TOO_BIG}", "2 3", (TOO_BIG, 4), f"{MAX_VERTEX_ID} 5", "1 2"]
CLEAN = ["1 2", "2 3", f"{MAX_VERTEX_ID} 5", "1 2"]
CONFIG = SketchConfig(k=8, seed=4)


def test_parse_rejects_ids_past_int64():
    assert parse_stream_record(f"{MAX_VERTEX_ID} 0").u == MAX_VERTEX_ID
    with pytest.raises(StreamFormatError, match=r"int64 vertex-id range") as error:
        parse_stream_record(f"0 {TOO_BIG}")
    assert error.value.reason == "non_integer_vertex"


def test_structured_records_share_the_id_domain():
    with pytest.raises(ContractViolation, match=r"int64 vertex-id range") as error:
        coerce_stream_record(SourceRecord(0, (TOO_BIG, 1)))
    assert error.value.reason == "non_integer_vertex"


def _check(report):
    stats, letters = report.stats, report.runner.dead_letters.entries
    assert [(letter.offset, letter.reason) for letter in letters] == [
        (1, "non_integer_vertex"),
        (3, "non_integer_vertex"),
    ]
    assert all("int64" in letter.detail for letter in letters)
    assert stats["source_exhausted"] is True
    return report.predictor


@pytest.mark.parametrize("policies", [None, "normalize"])
@pytest.mark.parametrize("batch_size", [0, 4096])
def test_serial_ingest_dead_letters_the_id(batch_size, policies):
    predictor = _check(ingest(LINES, config=CONFIG, batch_size=batch_size, policies=policies))
    clean = fold_accepted(CLEAN, MinHashLinkPredictor(CONFIG), policies=policies)
    assert sketch_fingerprint(predictor) == sketch_fingerprint(clean)


@pytest.mark.parametrize("batch_size", [0, 4096])
def test_sharded_ingest_dead_letters_the_id(batch_size):
    report = ingest(LINES, config=CONFIG, workers=2, batch_size=batch_size, policies="normalize")
    predictor = _check(report)
    clean = fold_accepted(CLEAN, MinHashLinkPredictor(CONFIG), policies="normalize")
    assert sketch_fingerprint(predictor) == sketch_fingerprint(clean)
