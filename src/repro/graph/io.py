"""Edge-list I/O in the SNAP text format.

The SNAP archive distributes graphs as whitespace-separated edge lists
with ``#`` comment headers::

    # Directed graph (each unordered pair of nodes is saved once)
    # FromNodeId    ToNodeId
    0       1
    0       2

Temporal datasets add a third column of epoch-second timestamps.  This
module reads and writes both layouts, so users can run the streaming
predictors directly on downloaded SNAP files, and experiments can
persist the synthetic stand-ins in the identical format.

Vertex labels need not be integers: :class:`VertexRelabeler` maps
arbitrary string labels to dense non-negative ids (first-appearance
order — which preserves the temporal semantics of the id space) and
back.
"""

from __future__ import annotations

import math
import re
import unicodedata
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError, StreamFormatError
from repro.graph.stream import Edge, StreamRecord

__all__ = [
    "read_edge_list",
    "iter_edge_list",
    "scan_edge_list",
    "parse_edge_line",
    "parse_stream_record",
    "parse_edge_block",
    "EdgeBlock",
    "MAX_VERTEX_ID",
    "LineDiagnostic",
    "write_edge_list",
    "VertexRelabeler",
]

PathLike = Union[str, Path]

#: Delimiters hostile exports substitute for whitespace (CSV dumps,
#: matrix-market variants, shell pipelines): their presence flags a
#: ``mixed_delimiter`` line when re-splitting on them yields a record.
_ALIEN_DELIMITERS = (",", ";", "|")
_ALIEN_SPLIT = re.compile(r"[\s,;|]+")

#: Leading operation tokens a fully dynamic feed may carry.  ``+``/``-``
#: are the compact sigil spelling; ``add``/``delete``/``del`` the
#: verbose one.  A line with no operation token is an ``add`` — that is
#: the entire back-compat story for append-only edge lists.
OP_TOKENS = {
    "+": "add",
    "add": "add",
    "-": "delete",
    "delete": "delete",
    "del": "delete",
}


#: The largest vertex id a record may carry: ids are ``int64`` end to
#: end (sketch rows, the guard's seen-edge store, block batches), so a
#: larger one is rejected at parse time, before it reaches any state.
MAX_VERTEX_ID = 2**63 - 1


def out_of_range_detail(field: str, value: int) -> str:
    """The ``non_integer_vertex`` detail for an id past :data:`MAX_VERTEX_ID`."""
    return (
        f"vertex {field}: id {value} is outside the int64 vertex-id range "
        f"[0, {MAX_VERTEX_ID}]"
    )


def _carries_hostile_chars(token: str) -> bool:
    """True when the token holds control (Cc) or format (Cf) characters
    — NUL bytes, ANSI escapes, BOMs, zero-width joiners."""
    return any(unicodedata.category(char) in ("Cc", "Cf") for char in token)


def _parse_vertex_token(token: str, field: str, line_number: Optional[int]) -> int:
    """One vertex token → non-negative int, or a typed reject.

    Deliberately stricter than ``int()``: Python's parser accepts
    underscores (``1_0``), an explicit sign (``+5``), surrounding
    whitespace, and non-ASCII decimal digits (``"١٢"``), all of which
    indicate a mangled upstream rather than a well-formed id.  Only
    canonical ASCII digit runs up to :data:`MAX_VERTEX_ID` pass.
    ``field`` names the record field (``"u"``/``"v"``) so error messages
    speak the schema, not a column index.
    """
    if token.isascii() and token.isdigit():
        value = int(token)
        if value > MAX_VERTEX_ID:
            raise StreamFormatError(
                out_of_range_detail(field, value),
                line_number=line_number,
                reason="non_integer_vertex",
            )
        return value
    if not token.isascii() or _carries_hostile_chars(token):
        raise StreamFormatError(
            f"vertex {field}: token {token!r} carries non-ASCII or control "
            "characters",
            line_number=line_number,
            reason="bad_encoding",
        )
    if token.startswith("-") and token[1:].isdigit():
        raise StreamFormatError(
            f"vertex {field}: negative id {token!r}",
            line_number=line_number,
            reason="negative_vertex",
        )
    raise StreamFormatError(
        f"vertex {field}: non-integer id {token!r} "
        "(pass a VertexRelabeler for labelled data)",
        line_number=line_number,
        reason="non_integer_vertex",
    )


def _parse_timestamp_token(token: str, line_number: Optional[int]) -> float:
    """The ``timestamp`` field → finite float, or a typed reject."""
    try:
        timestamp = float(token)
    except ValueError:
        raise StreamFormatError(
            f"timestamp: non-numeric value {token!r}",
            line_number=line_number,
            reason="bad_timestamp",
        ) from None
    if not math.isfinite(timestamp):
        raise StreamFormatError(
            f"timestamp: non-finite value {token!r} (nan/inf poison "
            "temporal ordering)",
            line_number=line_number,
            reason="nonfinite_timestamp",
        )
    return timestamp


def parse_stream_record(
    text: str,
    *,
    line_number: Optional[int] = None,
    default_timestamp: float = 0.0,
    relabeler: Optional["VertexRelabeler"] = None,
    accept_ops: bool = True,
) -> StreamRecord:
    """Parse one data line into a typed :class:`StreamRecord`.

    The single parsing authority: the eager readers below, the legacy
    :func:`parse_edge_line` wrapper and the fault-tolerant ingestion
    runtime (:mod:`repro.stream`) all route through this, so "what is a
    well-formed record" has exactly one definition.  Accepted layouts::

        u v                      # add, timestamp = default_timestamp
        u v timestamp            # add
        + u v [timestamp]        # add, explicit sigil
        - u v [timestamp]        # delete
        add u v [timestamp]      # add, verbose token
        delete u v [timestamp]   # delete  (also: del)

    Raises :class:`StreamFormatError` whose ``reason`` attribute is a
    dead-letter vocabulary slug (``bad_op``, ``bad_arity``,
    ``non_integer_vertex``, ``negative_vertex``, ``bad_timestamp``,
    ``mixed_delimiter``, ``bad_encoding``, ``nonfinite_timestamp``) and
    whose message names the record *field* (``op``, ``vertex u``,
    ``vertex v``, ``timestamp``) rather than a column index.  Self-loop
    policy is the *caller's* decision — a self-loop parses fine here.

    Vertex tokens must be canonical ASCII digit runs — Python-int
    lenience (``int("1_0")``, ``int("+5")``, fullwidth digits) is
    rejected, and control/format characters (NUL, ANSI escapes, BOMs)
    tag the line ``bad_encoding``.  Timestamps must be finite:
    ``float()`` happily parses ``nan``/``inf``, which would poison
    temporal ordering downstream, so those tag ``nonfinite_timestamp``.

    With ``accept_ops=False`` the operation token is not recognised and
    the legacy append-only grammar applies (op-looking tokens fall into
    the vertex-field rejects, exactly as before the record redesign).
    """
    fields = text.split()
    op = "add"
    if accept_ops and fields:
        head = fields[0]
        if head in OP_TOKENS:
            op = OP_TOKENS[head]
            fields = fields[1:]
        elif len(fields) == 4 and not (head.isascii() and head.isdigit()):
            # Four fields can only be well-formed as ``op u v t`` — a
            # non-numeric head that is no known op is a botched op
            # token, not an arity slip.
            raise StreamFormatError(
                f"op: leading token {head!r} is not an operation "
                "(expected add, delete, del, + or -)",
                line_number=line_number,
                reason="bad_op",
            )
    if relabeler is None and any(d in text for d in _ALIEN_DELIMITERS):
        candidate = [part for part in _ALIEN_SPLIT.split(text) if part]
        if candidate and candidate[0] in OP_TOKENS:
            candidate = candidate[1:]
        if 2 <= len(candidate) <= 3:
            raise StreamFormatError(
                "fields are joined by ,/;/| delimiters instead of whitespace "
                f"in {text!r}",
                line_number=line_number,
                reason="mixed_delimiter",
            )
    if len(fields) not in (2, 3):
        raise StreamFormatError(
            "expected fields <u> <v> [<timestamp>] with an optional leading "
            f"op token, got {len(fields)} fields",
            line_number=line_number,
            reason="bad_arity",
        )
    if relabeler is not None:
        for name, field in zip(("u", "v"), fields[:2]):
            if _carries_hostile_chars(field):
                raise StreamFormatError(
                    f"vertex {name}: label {field!r} carries control or "
                    "format characters",
                    line_number=line_number,
                    reason="bad_encoding",
                )
        u = relabeler.encode(fields[0])
        v = relabeler.encode(fields[1])
    else:
        u = _parse_vertex_token(fields[0], "u", line_number)
        v = _parse_vertex_token(fields[1], "v", line_number)
    if len(fields) == 3:
        timestamp = _parse_timestamp_token(fields[2], line_number)
    else:
        timestamp = default_timestamp
    return StreamRecord(op, u, v, timestamp)


class EdgeBlock(NamedTuple):
    """Bulk parse of a run of text lines (see :func:`parse_edge_block`).

    ``clean`` marks the lines in the strict grammar; ``us``/``vs`` hold
    their vertex ids and ``timestamps`` their timestamp field (NaN for a
    two-field line).  Entries of other lines are meaningless.
    """

    clean: np.ndarray
    us: np.ndarray
    vs: np.ndarray
    timestamps: np.ndarray


_POWERS_OF_TEN = 10 ** np.arange(19, dtype=np.int64)
#: Digits a bulk-parsed id may have: ``10**18 - 1 < MAX_VERTEX_ID``.
_ID_DIGITS = 18
#: Digits of an integer timestamp that converts to float exactly.
_EXACT_TIME_DIGITS = 15


def parse_edge_block(lines: Sequence[object]) -> EdgeBlock:
    """Parse many data lines at once, for the lines in a strict grammar.

    A line is *clean* when it is ``u v`` or ``u v t``: ASCII digit ids
    of at most 18 digits, a timestamp of digits with at most one ``.``,
    fields separated by spaces or tabs.  For a clean line the result
    equals :func:`parse_stream_record`'s (an ``add``); any other value —
    an op token, a comma, a sign, a control or non-ASCII character, a
    long id, a non-string — is left unclean for that scalar parser to
    judge, so the grammar needs no error paths of its own.
    """
    count = len(lines)
    clean = np.zeros(count, dtype=bool)
    us = np.zeros(count, dtype=np.int64)
    vs = np.zeros(count, dtype=np.int64)
    timestamps = np.full(count, np.nan)
    try:
        text = "\n".join(lines)  # type: ignore[arg-type]
    except TypeError:
        lines = [line if isinstance(line, str) else "" for line in lines]
        text = "\n".join(lines)  # type: ignore[arg-type]
    data = text.encode("utf-8", "surrogatepass")
    if data.count(b"\n") != count - 1:  # a value that holds a newline
        lines = ["" if "\n" in line else line for line in lines]  # type: ignore[operator]
        data = "\n".join(lines).encode("utf-8", "surrogatepass")  # type: ignore[arg-type]
    raw = np.frombuffer(data, dtype=np.uint8)
    newline = raw == ord("\n")
    separator = (raw == ord(" ")) | (raw == ord("\t")) | newline
    dot = raw == ord(".")
    digit = (raw - np.uint8(ord("0"))) < 10
    inside = ~separator
    opens = inside.copy()
    opens[1:] &= separator[:-1]
    starts = np.flatnonzero(opens)
    if not len(starts):
        return EdgeBlock(clean, us, vs, timestamps)
    closes = inside.copy()
    closes[:-1] &= separator[1:]
    ends = np.flatnonzero(closes)
    length = ends - starts + 1
    breaks = np.flatnonzero(newline)
    token_line = np.searchsorted(breaks, starts)
    fields = np.bincount(token_line, minlength=count)
    first = np.cumsum(fields) - fields
    ordinal = np.arange(len(starts)) - first[token_line]

    bad = (fields < 2) | (fields > 3)
    bad[np.searchsorted(breaks, np.flatnonzero(inside & ~digit & ~dot))] = True
    bad[token_line[(ordinal < 2) & (length > _ID_DIGITS)]] = True
    dotted = np.zeros(len(starts), dtype=np.int64)
    dots = np.flatnonzero(dot)
    if len(dots):
        token_of_dot = np.searchsorted(starts, dots, side="right") - 1
        bad[token_line[token_of_dot[ordinal[token_of_dot] != 2]]] = True
        dotted = np.bincount(token_of_dot, minlength=len(starts))
        bad[token_line[(dotted > 1) | ((dotted == 1) & (length == 1))]] = True

    # Every token's bytes as one integer, sum(digit * 10**places to its
    # end); bytes of unclean lines give garbage nobody reads.
    token_bytes = np.flatnonzero(inside)
    places = np.clip(np.repeat(ends, length) - token_bytes, 0, _ID_DIGITS)
    digits = raw[token_bytes].astype(np.int64) - ord("0")
    values = np.add.reduceat(digits * _POWERS_OF_TEN[places], np.cumsum(length) - length)

    good = np.flatnonzero(~bad)
    us[good] = values[first[good]]
    vs[good] = values[first[good] + 1]
    timed = good[fields[good] == 3]
    time_token = first[timed] + 2
    timestamps[timed] = values[time_token]
    # A dotted or long timestamp goes through float() itself: exact.
    slow = (dotted[time_token] > 0) | (length[time_token] > _EXACT_TIME_DIGITS)
    for line, token in zip(timed[slow].tolist(), time_token[slow].tolist()):
        value = float(data[starts[token] : ends[token] + 1])
        if math.isfinite(value):
            timestamps[line] = value
        else:
            bad[line] = True
    clean[~bad] = True
    return EdgeBlock(clean, us, vs, timestamps)


def parse_edge_line(
    text: str,
    *,
    line_number: Optional[int] = None,
    default_timestamp: float = 0.0,
    relabeler: Optional["VertexRelabeler"] = None,
) -> Edge:
    """Parse one append-only SNAP data line (``u v`` or ``u v
    timestamp``) into an :class:`Edge`.

    Back-compat wrapper over :func:`parse_stream_record` with operation
    tokens disabled: the legacy grammar cannot express deletions, so a
    ``-``/``delete`` line falls into the usual vertex-field rejects
    instead of silently becoming an add.  Callers that want the dynamic
    grammar parse records instead.
    """
    record = parse_stream_record(
        text,
        line_number=line_number,
        default_timestamp=default_timestamp,
        relabeler=relabeler,
        accept_ops=False,
    )
    return record.edge


class LineDiagnostic(NamedTuple):
    """One data line's parse outcome: exactly one of ``record``/``error``
    is set.  ``raw`` is the stripped line text for dead-letter triage."""

    line_number: int
    raw: str
    error: Optional[StreamFormatError] = None
    record: Optional[StreamRecord] = None


def scan_edge_list(
    path: PathLike,
    relabeler: Optional["VertexRelabeler"] = None,
    allow_self_loops: bool = False,
) -> Iterator[LineDiagnostic]:
    """Stream per-line parse diagnostics instead of aborting on the
    first malformed line.

    Yields one :class:`LineDiagnostic` per data line — a parsed
    ``record`` or the typed ``error`` (with ``.reason``) it produced —
    which is exactly the shape a dead-letter channel wants.  Comments
    and blank lines are skipped; dropped self-loops (when
    ``allow_self_loops`` is false) are skipped silently, matching
    :func:`iter_edge_list`.  The legacy append-only grammar applies:
    op tokens are not recognised, so every record is an ``add``.
    """
    index = 0
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for line_number, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith(("#", "%")):
                continue
            try:
                record = parse_stream_record(
                    text,
                    line_number=line_number,
                    default_timestamp=float(index),
                    relabeler=relabeler,
                    accept_ops=False,
                )
            except StreamFormatError as error:
                yield LineDiagnostic(line_number, text, error=error)
                continue
            if record.u == record.v and not allow_self_loops:
                continue  # SNAP files occasionally carry self-loops; drop them
            yield LineDiagnostic(line_number, text, record=record)
            index += 1


def iter_edge_list(
    path: PathLike,
    relabeler: Optional["VertexRelabeler"] = None,
    allow_self_loops: bool = False,
    on_error: str = "raise",
) -> Iterator[Edge]:
    """Stream edges from a SNAP-format file without materialising it.

    Lines are ``u v`` or ``u v timestamp``; ``#`` and blank lines are
    skipped.  When a ``relabeler`` is supplied, raw tokens are treated
    as opaque labels and mapped through it; otherwise tokens must be
    non-negative integers already.  Two-column rows are timestamped by
    their (data-)line index.

    ``on_error`` selects the malformed-line policy: ``"raise"`` (the
    default) raises :class:`StreamFormatError` with the offending line
    number; ``"skip"`` silently drops bad lines and keeps streaming —
    use :func:`scan_edge_list` instead when the *reasons* matter.
    """
    if on_error not in ("raise", "skip"):
        raise ConfigurationError(
            f'on_error must be "raise" or "skip", got {on_error!r}'
        )
    for diagnostic in scan_edge_list(path, relabeler, allow_self_loops):
        if diagnostic.error is not None:
            if on_error == "raise":
                raise diagnostic.error
            continue
        assert diagnostic.record is not None
        yield diagnostic.record.edge


def read_edge_list(
    path: PathLike,
    relabeler: Optional["VertexRelabeler"] = None,
    allow_self_loops: bool = False,
    on_error: str = "raise",
) -> List[Edge]:
    """Read a whole SNAP-format edge list into memory (see
    :func:`iter_edge_list` for the streaming variant and the format
    details)."""
    return list(iter_edge_list(path, relabeler, allow_self_loops, on_error))


def write_edge_list(
    path: PathLike,
    edges: Iterable[Edge],
    include_timestamps: bool = True,
    header: Optional[str] = None,
) -> int:
    """Write edges in SNAP format; returns the number of rows written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            for header_line in header.splitlines():
                handle.write(f"# {header_line}\n")
        for edge in edges:
            if include_timestamps:
                handle.write(f"{edge.u}\t{edge.v}\t{edge.timestamp:g}\n")
            else:
                handle.write(f"{edge.u}\t{edge.v}\n")
            count += 1
    return count


class VertexRelabeler(object):
    """Bidirectional map between arbitrary labels and dense integer ids.

    Ids are assigned in first-appearance order starting from 0, so a
    temporal stream's id space itself reflects arrival order.  The map
    is append-only; :meth:`decode` of an unassigned id raises
    ``KeyError``.
    """

    __slots__ = ("_forward", "_backward")

    def __init__(self) -> None:
        self._forward: Dict[str, int] = {}
        self._backward: List[str] = []

    def encode(self, label: object) -> int:
        """Return the id of ``label``, assigning the next id if new."""
        key = str(label)
        existing = self._forward.get(key)
        if existing is not None:
            return existing
        new_id = len(self._backward)
        self._forward[key] = new_id
        self._backward.append(key)
        return new_id

    def decode(self, vertex_id: int) -> str:
        """Return the original label of ``vertex_id``."""
        return self._backward[vertex_id]

    def __len__(self) -> int:
        return len(self._backward)

    def __contains__(self, label: object) -> bool:
        return str(label) in self._forward

    def __repr__(self) -> str:
        return f"VertexRelabeler(size={len(self._backward)})"
