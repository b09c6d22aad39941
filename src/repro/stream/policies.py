"""Per-case ingest policies and the stream-level contract guard.

The dead-letter channel gives every contract violation a *name*
(:data:`~repro.stream.deadletter.REASONS`); this module gives every
name a *policy*.  Each casebook case (see
:mod:`repro.stream.casebook` and ``docs/CASEBOOK.md``) can be handled
in one of three modes:

``strict``
    Raise :class:`~repro.errors.DeadLetterError` on first occurrence —
    the CI / data-contract posture where a hostile line means the
    upstream broke.
``quarantine``
    Dead-letter the record with its reason, count it, keep consuming —
    the default unattended-consumer posture.
``normalize``
    Repair the record when the case admits a deterministic repair
    (re-split mixed delimiters, strip control characters, substitute
    the offset for a broken timestamp, clamp regressing / far-future
    timestamps, drop the duplicate or excess hub edge) and continue;
    every applied repair is counted per-reason in the metrics registry
    (``ingest_normalized_total{reason=...}``).  Cases with no sound
    repair (``bad_arity``, ``non_integer_vertex``, ``negative_vertex``,
    ``bad_record_type``) fall back to quarantine.

Two layers cooperate:

* **parse level** — :func:`coerce_stream_record` validates one raw
  record via :func:`repro.graph.io.parse_stream_record`, coercing every
  accepted shape — text line, ``(u, v[, t])`` tuple, ``Edge`` — into a
  typed :class:`~repro.graph.stream.StreamRecord`;
* **stream level** — :class:`StreamGuard` additionally tracks
  cross-record state to detect ``duplicate_edge``,
  ``out_of_order_timestamp``, ``far_future_timestamp`` and
  ``hub_anomaly`` — the degree-explosion case gSketch shows distorts
  sketch estimators specifically.

The guard's state is laid out for size, not per-edge objects:

* the seen edges, a :class:`~repro.stream.seen.SeenEdges` store of
  canonical ``(lo, hi)`` pairs in sorted ``uint64``/``int64`` columns —
  16 bytes per accepted edge, plus a 64 KiB pending buffer;
* the per-vertex degrees, a ``dict`` (one entry per vertex seen), with
  the highest degree reached kept beside it;
* the timestamp high-water mark, one float.

:meth:`StreamGuard.state_arrays` exports the three as arrays (a
checkpoint stores them with the sketches) and
:meth:`StreamGuard.restore` loads them back.

Two judges share that state.  :meth:`StreamGuard.evaluate` judges one
record.  :meth:`StreamGuard.screen` judges a chunk of lines already
parsed by :func:`repro.graph.io.parse_edge_block` in bulk and names the
ones it can accept unchanged; the
:class:`~repro.stream.admission.Admission` stage sends every other
record through :meth:`~StreamGuard.evaluate`, in stream order, so both
paths give bit-identical verdicts.

A guard with ``policies=None`` reproduces the legacy contract exactly
(parse-level validation only, dead-letter on violation): stream-level
detection costs state, so it is strictly opt-in.
"""

from __future__ import annotations

import math
import operator
import re
import unicodedata
from itertools import repeat
from typing import Dict, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, StreamFormatError
from repro.graph.io import MAX_VERTEX_ID, OP_TOKENS, out_of_range_detail, parse_stream_record
from repro.graph.stream import OPS, StreamRecord
from repro.stream.deadletter import REASONS
from repro.stream.seen import SeenEdges
from repro.stream.sources import SourceRecord

__all__ = [
    "MODES",
    "DEFAULT_POLICIES",
    "DEFAULT_HUB_DEGREE_LIMIT",
    "DEFAULT_MAX_TIMESTAMP",
    "PolicySet",
    "GuardVerdict",
    "StreamGuard",
    "ContractViolation",
    "ChunkScreen",
    "coerce_stream_record",
]

#: The three per-case handling modes, from least to most forgiving.
MODES = ("strict", "quarantine", "normalize")

#: Default mode per casebook case.  Repairable formatting damage is
#: normalized (the repair is deterministic and information-preserving);
#: semantic anomalies that could mask a real upstream problem are
#: quarantined so an operator sees them.  Rationale per case lives in
#: ``docs/CASEBOOK.md``.
DEFAULT_POLICIES: Dict[str, str] = {
    "bad_arity": "quarantine",
    "non_integer_vertex": "quarantine",
    "negative_vertex": "quarantine",
    "bad_timestamp": "quarantine",
    "self_loop": "quarantine",
    "bad_record_type": "quarantine",
    "mixed_delimiter": "normalize",
    "bad_encoding": "normalize",
    "nonfinite_timestamp": "quarantine",
    "bad_op": "quarantine",
    "duplicate_edge": "normalize",
    "out_of_order_timestamp": "normalize",
    "far_future_timestamp": "quarantine",
    "hub_anomaly": "quarantine",
    "delete_unseen_edge": "quarantine",
    "unsupported_delete": "quarantine",
}

#: Degree past which one vertex is a hub anomaly (the "ATLAS author
#: inflation" analog): generous for real graphs, tiny in tests.
DEFAULT_HUB_DEGREE_LIMIT = 100_000

#: 2100-01-01T00:00:00Z — epoch-second timestamps beyond this are a
#: unit error (milliseconds in a seconds column) or garbage.
DEFAULT_MAX_TIMESTAMP = 4_102_444_800.0

_ALIEN_SPLIT = re.compile(r"[\s,;|]+")


class ContractViolation(Exception):
    """A record failed validation (reason + human detail).

    Raised by :func:`coerce_stream_record`; :class:`StreamGuard` turns
    it into a verdict, and the
    :class:`~repro.stream.admission.Admission` stage into a dead-letter
    entry or a :class:`~repro.errors.DeadLetterError` per its policy.
    """

    def __init__(self, reason: str, detail: str) -> None:
        super().__init__(detail)
        self.reason = reason
        self.detail = detail


def _coerce_vertex_pair(u: object, v: object, value: object) -> Tuple[int, int]:
    """Validate the ``u``/``v`` fields of a structured record."""
    if not isinstance(u, int) or not isinstance(v, int) or isinstance(u, bool) or isinstance(v, bool):
        raise ContractViolation("non_integer_vertex", f"non-integer vertex field in {value!r}")
    if u < 0 or v < 0:
        raise ContractViolation("negative_vertex", f"negative vertex id in {value!r}")
    for field, vertex in (("u", u), ("v", v)):
        if vertex > MAX_VERTEX_ID:
            raise ContractViolation("non_integer_vertex", out_of_range_detail(field, vertex))
    return u, v


def _coerce_timestamp(raw: object, value: object, field: str = "timestamp") -> float:
    """Validate a float-valued field (``timestamp``/``weight``) of a
    structured record."""
    try:
        timestamp = float(raw)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ContractViolation("bad_timestamp", f"{field}: non-numeric value {raw!r}") from None
    if not math.isfinite(timestamp):
        raise ContractViolation(
            "nonfinite_timestamp", f"{field}: non-finite value {raw!r}"
        )
    return timestamp


def coerce_stream_record(
    record: SourceRecord, self_loops: str = "quarantine"
) -> Optional[StreamRecord]:
    """Validate one raw record into a typed :class:`StreamRecord`.

    The single record-contract implementation behind every
    :class:`StreamGuard` — the serial runner and the sharded
    coordinator admit records through one guard-backed
    :class:`~repro.stream.admission.Admission` stage, so both accept and
    reject *exactly* the same records (parallel ingestion could not be
    bit-identical to serial otherwise).  Accepted input shapes:

    * a text line (the dynamic grammar of
      :func:`repro.graph.io.parse_stream_record`);
    * a :class:`StreamRecord` (fields are validated, not trusted);
    * an :class:`~repro.graph.stream.Edge` or a ``(u, v[, t])``
      tuple/list, coerced to an ``op="add"`` record.

    ``None`` means "drop silently" (a self-loop under
    ``self_loops="drop"``); contract violations raise
    :class:`ContractViolation`.
    """
    value = record.value
    if isinstance(value, str):
        try:
            parsed = parse_stream_record(
                value,
                line_number=record.line_number,
                default_timestamp=float(record.offset),
            )
        except StreamFormatError as error:
            raise ContractViolation(error.reason or "bad_arity", str(error)) from None
    elif isinstance(value, StreamRecord):
        if value.op not in OPS:
            raise ContractViolation(
                "bad_op", f"op: {value.op!r} is not one of {'/'.join(OPS)}"
            )
        u, v = _coerce_vertex_pair(value.u, value.v, value)
        timestamp = _coerce_timestamp(value.timestamp, value)
        weight = _coerce_timestamp(value.weight, value, field="weight")
        parsed = StreamRecord(value.op, u, v, timestamp, weight)
    elif isinstance(value, (tuple, list)):
        if len(value) not in (2, 3):
            raise ContractViolation(
                "bad_arity",
                f"expected fields (u, v[, timestamp]), got {len(value)} fields",
            )
        u, v = _coerce_vertex_pair(value[0], value[1], value)
        if len(value) == 3:
            timestamp = _coerce_timestamp(value[2], value)
        else:
            timestamp = float(record.offset)
        parsed = StreamRecord("add", u, v, timestamp)
    else:
        raise ContractViolation(
            "bad_record_type",
            f"record is a {type(value).__name__}, not a line, tuple or StreamRecord",
        )
    if parsed.u == parsed.v:
        if self_loops == "drop":
            return None
        raise ContractViolation("self_loop", f"self-loop on vertex {parsed.u}")
    return parsed


class PolicySet:
    """An immutable mapping: casebook case → handling mode.

    Construct with per-case overrides of :data:`DEFAULT_POLICIES`, or
    via :meth:`uniform` (one mode for every case) / :meth:`parse` (the
    CLI spelling: ``"strict"``, ``"normalize"``, or
    ``"duplicate_edge=normalize,hub_anomaly=strict"``).  Unknown cases
    and unknown modes are configuration errors — the vocabulary is
    closed on purpose.
    """

    __slots__ = ("_modes",)

    def __init__(self, overrides: Optional[Mapping[str, str]] = None) -> None:
        modes = dict(DEFAULT_POLICIES)
        for reason, mode in (overrides or {}).items():
            if reason not in modes:
                raise ConfigurationError(
                    f"unknown casebook case {reason!r} (vocabulary: "
                    f"{', '.join(REASONS)})"
                )
            if mode not in MODES:
                raise ConfigurationError(
                    f'mode for {reason!r} must be one of {"/".join(MODES)}, got {mode!r}'
                )
            modes[reason] = mode
        self._modes = modes

    @classmethod
    def uniform(cls, mode: str) -> "PolicySet":
        """Every case handled the same way — the casebook table runs."""
        if mode not in MODES:
            raise ConfigurationError(
                f'mode must be one of {"/".join(MODES)}, got {mode!r}'
            )
        return cls({reason: mode for reason in DEFAULT_POLICIES})

    @classmethod
    def parse(cls, spec: str) -> "PolicySet":
        """Parse the CLI spelling into a policy set.

        ``"default"``/empty → the defaults; a bare mode name → uniform;
        otherwise a comma list of ``case=mode`` overrides.
        """
        spec = spec.strip()
        if not spec or spec == "default":
            return cls()
        if "=" not in spec:
            return cls.uniform(spec)
        overrides: Dict[str, str] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            reason, sep, mode = part.partition("=")
            if not sep:
                raise ConfigurationError(
                    f"malformed case policy {part!r} (expected case=mode)"
                )
            overrides[reason.strip()] = mode.strip()
        return cls(overrides)

    def mode_for(self, reason: str) -> str:
        """The handling mode of ``reason`` (quarantine for any slug
        outside the vocabulary — fail safe, not open)."""
        return self._modes.get(reason, "quarantine")

    def as_dict(self) -> Dict[str, str]:
        return dict(self._modes)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PolicySet) and self._modes == other._modes

    def __repr__(self) -> str:
        overrides = {
            reason: mode
            for reason, mode in self._modes.items()
            if DEFAULT_POLICIES[reason] != mode
        }
        return f"PolicySet({overrides!r})" if overrides else "PolicySet()"


class GuardVerdict(NamedTuple):
    """One record's disposition under the active policies.

    ``disposition`` is one of:

    * ``"ok"`` — clean record, ``record`` is set;
    * ``"normalized"`` — one or more repairs applied (``cases`` lists
      them); ``record`` is set when the repair preserved the record,
      ``None`` when the repair *was* removal (duplicate, excess hub
      edge, dropped self-loop);
    * ``"drop"`` — silent drop outside any policy (legacy
      ``self_loops="drop"``);
    * ``"quarantine"`` — dead-letter with ``reason``/``detail``;
    * ``"strict"`` — the case's mode demands failing the stream.

    ``record`` is the typed, possibly repaired operation to apply.
    """

    disposition: str
    reason: Optional[str]
    detail: str
    cases: Tuple[str, ...]
    record: Optional[StreamRecord] = None


class StreamGuard:
    """Stateful casebook enforcement for one logical stream.

    Wraps :func:`coerce_stream_record` with per-case policies and the
    cross-record detectors.  One guard instance *is* the stream's
    memory: each runner's :class:`~repro.stream.admission.Admission`
    stage owns one, and a dead-letter replay must reuse the original guard so the
    replayed records are judged against the already-ingested state
    (otherwise a quarantined duplicate would be re-accepted).

    With ``policies=None`` the guard is pass-through: parse-level
    validation only, no state is kept, and every violation surfaces as
    a ``"quarantine"`` verdict for the runner's legacy ``policy`` knob
    to escalate — byte-for-byte the pre-casebook behavior.
    """

    def __init__(
        self,
        policies: Optional[PolicySet] = None,
        *,
        self_loops: str = "quarantine",
        hub_degree_limit: int = DEFAULT_HUB_DEGREE_LIMIT,
        max_timestamp: float = DEFAULT_MAX_TIMESTAMP,
        supports_deletes: bool = False,
    ) -> None:
        if self_loops not in ("quarantine", "drop"):
            raise ConfigurationError(
                f'self_loops must be "quarantine" or "drop", got {self_loops!r}'
            )
        if hub_degree_limit < 1:
            raise ConfigurationError(
                f"hub_degree_limit must be >= 1, got {hub_degree_limit}"
            )
        if not math.isfinite(max_timestamp):
            raise ConfigurationError("max_timestamp must be finite")
        self.policies = policies
        self.self_loops = self_loops
        self.hub_degree_limit = hub_degree_limit
        self.max_timestamp = float(max_timestamp)
        #: Whether the downstream sink can retract edges.  A ``delete``
        #: against an append-only sink is judged ``unsupported_delete``
        #: (and never mutates detector state); with a dynamic sink the
        #: guard instead checks ``delete_unseen_edge`` and, on accept,
        #: retracts the edge from its own seen/degree state.
        self.supports_deletes = supports_deletes
        self._seen = SeenEdges()
        self._degrees: Dict[int, int] = {}
        #: At least every degree in ``_degrees`` (deletes do not lower it).
        self._top_degree = 0
        self._high_water = float("-inf")

    @property
    def active(self) -> bool:
        """Whether stream-level cases are being enforced."""
        return self.policies is not None

    def reset(self) -> None:
        """Forget all cross-record state (a fresh logical stream)."""
        self._seen.clear()
        self._degrees.clear()
        self._top_degree = 0
        self._high_water = float("-inf")

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """The cross-record state as arrays: seen edges (``seen_lo``/
        ``seen_hi``, canonical pairs in no particular order), degrees
        (``degree_vertices``/``degrees``) and ``high_water``."""
        lo, hi = self._seen.pairs()
        count = len(self._degrees)
        return {
            "seen_lo": lo,
            "seen_hi": hi,
            "degree_vertices": np.fromiter(self._degrees, np.int64, count),
            "degrees": np.fromiter(self._degrees.values(), np.int64, count),
            "high_water": np.float64(self._high_water),
        }

    def restore(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Replace the cross-record state with :meth:`state_arrays` output."""
        self.reset()
        lo, hi = arrays["seen_lo"], arrays["seen_hi"]
        self._seen.add_new_keys(SeenEdges.keys(lo, hi), lo)
        degrees = arrays["degrees"]
        self._degrees.update(zip(arrays["degree_vertices"].tolist(), degrees.tolist()))
        self._top_degree = int(degrees.max()) if len(degrees) else 0
        self._high_water = float(arrays["high_water"])

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(
        self, record: SourceRecord, policies: Optional[PolicySet] = None
    ) -> GuardVerdict:
        """Judge one record; commits detector state iff it is accepted.

        ``policies`` overrides the guard's own set for this record —
        the dead-letter replay path re-judges quarantined records under
        a corrected policy against the *same* accumulated state.
        """
        active = policies if policies is not None else self.policies
        try:
            parsed = coerce_stream_record(record, self.self_loops)
        except ContractViolation as violation:
            if active is None:
                return GuardVerdict("quarantine", violation.reason, violation.detail, ())
            return self._parse_verdict(record, violation, active)
        if parsed is None:
            return GuardVerdict("drop", "self_loop", "", ())
        if active is None:
            if parsed.op == "delete" and not self.supports_deletes:
                return GuardVerdict(
                    "quarantine", "unsupported_delete",
                    f"delete of edge ({parsed.u}, {parsed.v}) reached an "
                    "append-only consumer", (),
                )
            return GuardVerdict("ok", None, "", (), parsed)
        return self._stream_verdict(parsed, [], active)

    def screen(
        self,
        clean: np.ndarray,
        us: np.ndarray,
        vs: np.ndarray,
        timestamps: np.ndarray,
    ) -> "ChunkScreen":
        """Judge a chunk of records in bulk (see :class:`ChunkScreen`).

        The arrays cover every record of the chunk: ``clean`` marks the
        text lines :func:`~repro.graph.io.parse_edge_block` parsed,
        ``us``/``vs`` their ids and ``timestamps`` their timestamp,
        already defaulted to the offset.
        """
        return ChunkScreen(self, clean, us, vs, timestamps)

    def _count_degrees(self, us: np.ndarray, vs: np.ndarray) -> None:
        """Add one degree per endpoint of accepted edges."""
        vertices, counts = np.unique(np.concatenate((us, vs)), return_counts=True)
        vertices = vertices.tolist()
        degrees = self._degrees
        totals = list(map(operator.add, map(degrees.get, vertices, repeat(0)), counts.tolist()))
        degrees.update(zip(vertices, totals))
        self._top_degree = max(self._top_degree, max(totals))

    def _parse_verdict(
        self, record: SourceRecord, violation: ContractViolation, policies: PolicySet
    ) -> GuardVerdict:
        verdict = self._judge(violation.reason, violation.detail, [], policies)
        if verdict is not None:
            return verdict
        try:
            repaired = self._repair(record, violation)
        except ContractViolation as secondary:
            # No sound repair, or the repair uncovered a second defect:
            # fall back to that violation's own mode (never normalize —
            # one repair attempt per record keeps this terminating).
            fallback = policies.mode_for(secondary.reason)
            disposition = "strict" if fallback == "strict" else "quarantine"
            return GuardVerdict(disposition, secondary.reason, secondary.detail, ())
        if repaired is None:
            # The repair was removal (a self-loop under normalize).
            return GuardVerdict(
                "normalized", violation.reason, violation.detail, (violation.reason,)
            )
        return self._stream_verdict(repaired, [violation.reason], policies)

    def _stream_verdict(
        self, parsed: StreamRecord, cases: list, policies: PolicySet
    ) -> GuardVerdict:
        key = (parsed.u, parsed.v) if parsed.u <= parsed.v else (parsed.v, parsed.u)
        if parsed.op == "delete":
            # Sink capability first: against an append-only sink no
            # delete can apply, whatever edge it names, and detector
            # state must stay untouched.
            if not self.supports_deletes:
                detail = (
                    f"delete of edge {key} reached an append-only consumer "
                    "(enable dynamic mode for retractable streams)"
                )
                return self._removed("unsupported_delete", detail, cases, policies)
            # Unseen next: like duplicate-first for adds, identity does
            # not depend on the timestamp, so a retraction of an edge
            # the stream never added is named for what it is.
            if key not in self._seen:
                detail = f"delete of edge {key} which the stream never added"
                return self._removed("delete_unseen_edge", detail, cases, policies)
        elif key in self._seen:
            # Duplicate first: identity does not depend on the
            # timestamp, so a verbatim re-send (whose stale timestamp
            # would also look out-of-order) is named for what it is.
            detail = f"edge {key} already accepted earlier in the stream"
            return self._removed("duplicate_edge", detail, cases, policies)
        if parsed.timestamp > self.max_timestamp:
            detail = (
                f"timestamp {parsed.timestamp:g} beyond the far-future horizon "
                f"{self.max_timestamp:g}"
            )
            verdict = self._judge("far_future_timestamp", detail, cases, policies)
            if verdict is not None:
                return verdict
            parsed = parsed._replace(timestamp=self.max_timestamp)
            cases.append("far_future_timestamp")
        if self._high_water > float("-inf") and parsed.timestamp < self._high_water:
            detail = (
                f"timestamp {parsed.timestamp:g} regresses behind the stream "
                f"high-water mark {self._high_water:g}"
            )
            verdict = self._judge("out_of_order_timestamp", detail, cases, policies)
            if verdict is not None:
                return verdict
            parsed = parsed._replace(timestamp=self._high_water)
            cases.append("out_of_order_timestamp")
        if parsed.op == "delete":
            # Accepted delete: retract the edge from the detector state
            # so a later re-add is a fresh edge, not a duplicate.
            self._seen.discard(*key)
            self._degrees[parsed.u] = max(0, self._degrees.get(parsed.u, 0) - 1)
            self._degrees[parsed.v] = max(0, self._degrees.get(parsed.v, 0) - 1)
        else:
            degree_u = self._degrees.get(parsed.u, 0)
            degree_v = self._degrees.get(parsed.v, 0)
            if degree_u >= self.hub_degree_limit or degree_v >= self.hub_degree_limit:
                hub = parsed.u if degree_u >= self.hub_degree_limit else parsed.v
                detail = (
                    f"vertex {hub} already has degree {max(degree_u, degree_v)} "
                    f"(hub limit {self.hub_degree_limit})"
                )
                return self._removed("hub_anomaly", detail, cases, policies)
            # Accepted: commit the detector state.
            self._seen.add_new(*key)
            self._degrees[parsed.u] = degree_u + 1
            self._degrees[parsed.v] = degree_v + 1
            self._top_degree = max(self._top_degree, degree_u + 1, degree_v + 1)
        if parsed.timestamp > self._high_water:
            self._high_water = parsed.timestamp
        if cases:
            return GuardVerdict(
                "normalized", cases[0], "", tuple(cases), parsed
            )
        return GuardVerdict("ok", None, "", (), parsed)

    def _removed(
        self, reason: str, detail: str, cases: list, policies: PolicySet
    ) -> GuardVerdict:
        """The verdict for a stream-level case whose normalize repair is
        removal of the record."""
        verdict = self._judge(reason, detail, cases, policies)
        if verdict is not None:
            return verdict
        return GuardVerdict("normalized", reason, detail, tuple(cases + [reason]))

    def _judge(
        self, reason: str, detail: str, cases: list, policies: PolicySet
    ) -> Optional[GuardVerdict]:
        """Strict/quarantine verdict for a stream-level case, or
        ``None`` when the mode is normalize (caller applies the repair)."""
        mode = policies.mode_for(reason)
        if mode == "strict":
            return GuardVerdict("strict", reason, detail, tuple(cases))
        if mode == "quarantine":
            return GuardVerdict("quarantine", reason, detail, tuple(cases))
        return None

    # ------------------------------------------------------------------
    # Normalize-mode repairs (parse level)
    # ------------------------------------------------------------------

    def _repair(
        self, record: SourceRecord, violation: ContractViolation
    ) -> Optional[StreamRecord]:
        """The deterministic repair for one parse-level case.

        Returns the repaired record (``None`` = repaired by removal) or
        raises :class:`ContractViolation` when the case is unrepairable
        or the repaired text still violates the contract.
        """
        reason, value = violation.reason, record.value
        if reason == "self_loop":
            return None
        if reason in ("bad_timestamp", "nonfinite_timestamp"):
            # Substitute the stream offset — the same default an
            # untimestamped record gets, so ordering stays monotone.
            if isinstance(value, str):
                tokens = value.split()
                keep = 3 if tokens and tokens[0] in OP_TOKENS else 2
                return self._reparse(record, " ".join(tokens[:keep]))
            if isinstance(value, StreamRecord):
                return self._reparse(record, value._replace(timestamp=float(record.offset)))
            return self._reparse(record, tuple(value[:2]))
        if reason == "mixed_delimiter" and isinstance(value, str):
            parts = [part for part in _ALIEN_SPLIT.split(value) if part]
            return self._reparse(record, " ".join(parts))
        if reason == "bad_encoding" and isinstance(value, str):
            return self._reparse(record, _strip_hostile_encoding(value))
        raise ContractViolation(
            reason, f"no sound normalizer for {reason}: {violation.detail}"
        )

    def _reparse(self, record: SourceRecord, repaired: object) -> Optional[StreamRecord]:
        """Re-run the repaired value through the full record contract."""
        return coerce_stream_record(record._replace(value=repaired), self.self_loops)


class ChunkScreen:
    """The guard's bulk verdicts over one chunk of records.

    :attr:`ok` marks the records the guard accepts unchanged: clean
    lines that are no self-loop and, under casebook policies, no
    duplicate (of an accepted edge or of an earlier line of the
    chunk), within the far-future horizon, not earlier than the
    high-water mark or any earlier line of the chunk, and on no vertex
    that the chunk's records could push to the hub limit.  Every other
    record goes to :meth:`StreamGuard.evaluate`, and its verdict cannot
    change an ``ok`` one except in two ways, which
    :meth:`scalar_accepted` applies: an accepted record makes a later
    line with its edge a duplicate, and a later line with an earlier
    timestamp out of order.

    The caller walks the chunk in stream order: :meth:`commit` each run
    of ``ok`` records, evaluate the record after it, report it if
    accepted, and so on; then :meth:`close`.  When no vertex can reach
    the hub limit within the chunk and no delete can retract an edge,
    degree counts wait for :meth:`close` (the scalar judge's hub check
    cannot fire, and its increments add up in any order).
    """

    def __init__(
        self,
        guard: StreamGuard,
        clean: np.ndarray,
        us: np.ndarray,
        vs: np.ndarray,
        timestamps: np.ndarray,
    ) -> None:
        self.guard = guard
        self.ok = ok = clean & (us != vs)
        self.us, self.vs, self.timestamps = us, vs, timestamps
        self._deferred: list = []
        self._defer = False
        if guard.policies is None:
            return
        count = len(ok)
        horizon = guard.max_timestamp
        ok &= timestamps <= horizon
        # Out of order against the high-water mark or any earlier clean
        # line: an upper bound of the mark whatever those lines' fate.
        bound = np.where(clean, np.minimum(timestamps, horizon), -np.inf)
        bound = np.maximum.accumulate(np.concatenate(([guard._high_water], bound[:-1])))
        ok &= timestamps >= bound
        self.lo, self.hi = np.minimum(us, vs), np.maximum(us, vs)
        self.keys = SeenEdges.keys(self.lo, self.hi)
        # Duplicates: keep the first line of each key that is not seen.
        # (Two edges sharing a key leave the second to the scalar judge.)
        candidates = np.flatnonzero(ok)
        keys, first = np.unique(self.keys[candidates], return_index=True)
        first = candidates[first]
        ok[:] = False
        ok[first[~guard._seen.contains_keys(keys, self.lo[first])]] = True
        # Hub limit: each record can add at most one to a vertex degree.
        limit = guard.hub_degree_limit
        self._defer = not guard.supports_deletes and guard._top_degree + count <= limit
        if guard._top_degree + count > limit:
            chosen = np.flatnonzero(ok)
            vertices, occurrences = np.unique(
                np.concatenate((us[chosen], vs[chosen])), return_counts=True
            )
            before = np.fromiter(
                map(guard._degrees.get, vertices.tolist(), repeat(0)), np.int64, len(vertices)
            )
            risky = vertices[before + occurrences + (count - len(chosen)) > limit]
            if len(risky):
                ok[chosen[np.isin(us[chosen], risky) | np.isin(vs[chosen], risky)]] = False
        # Past the last ok line, no verdict is left to withdraw.
        self._last_ok = int(np.flatnonzero(ok)[-1]) if ok.any() else -1

    def commit(self, start: int, stop: int) -> None:
        """Accept the records ``start:stop``, all of them ``ok``."""
        guard = self.guard
        if guard.policies is None:
            return
        guard._seen.add_new_keys(self.keys[start:stop], self.lo[start:stop])
        # An ok line is not earlier than any line before it: the last
        # line of a run holds the run's latest timestamp.
        guard._high_water = max(guard._high_water, float(self.timestamps[stop - 1]))
        if self._defer:
            self._deferred.append((start, stop))
        else:
            guard._count_degrees(self.us[start:stop], self.vs[start:stop])

    def scalar_accepted(self, position: int, record: StreamRecord) -> bool:
        """Withdraw ``ok`` from the later lines a record the scalar judge
        accepted at ``position`` affects; returns whether any lost it."""
        if self.guard.policies is None or position >= self._last_ok:
            return False
        later = self.ok[position + 1 :]
        revoked = later & (self.timestamps[position + 1 :] < record.timestamp)
        if record.op == "add":
            lo, hi = min(record.u, record.v), max(record.u, record.v)
            revoked |= later & (self.lo[position + 1 :] == lo) & (self.hi[position + 1 :] == hi)
        if not revoked.any():
            return False
        later[revoked] = False
        return True

    def close(self) -> None:
        """Count the deferred degrees."""
        if self._deferred:
            runs, self._deferred = self._deferred, []
            self.guard._count_degrees(
                np.concatenate([self.us[start:stop] for start, stop in runs]),
                np.concatenate([self.vs[start:stop] for start, stop in runs]),
            )


def _strip_hostile_encoding(text: str) -> str:
    """Deterministic ``bad_encoding`` repair: drop control/format
    characters (keeping tab — it is a field separator), fold Unicode
    compatibility forms (NFKC turns fullwidth digits into ASCII), and
    canonicalize any remaining non-ASCII digit runs through ``int``."""
    kept = "".join(
        char
        for char in text
        if char == "\t" or unicodedata.category(char) not in ("Cc", "Cf")
    )
    kept = unicodedata.normalize("NFKC", kept)
    tokens = []
    for token in kept.split():
        if token.isdigit() and not token.isascii():
            token = str(int(token))
        tokens.append(token)
    return " ".join(tokens)
