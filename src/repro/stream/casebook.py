"""The adversarial input casebook: hostile cases, corpora, and replay.

The paper's thesis is that deployments fail on the *dark* part of the
data — the malformed, duplicated, mis-encoded long tail that clean
benchmark reproductions never exercise.  This module turns that long
tail into a tested contract:

* :data:`CASEBOOK` — the taxonomy: one :class:`Case` per dead-letter
  reason, with its level (parse vs stream), default policy, repair
  description, a real-world example, and a minimal hostile fixture
  (the table behind ``docs/CASEBOOK.md`` and ``repro-linkpred
  casebook``);
* :class:`SyntheticCorpusGenerator` — seeded hostile corpora where
  every line is labeled with its case and expected disposition under
  each policy mode, so CI can replay the whole casebook as a gate;
* :func:`replay_dead_letters` — the triage loop: read a quarantine
  file (or sink), re-judge each letter under a corrected policy
  against the *original* guard state, and fold the repaired edges into
  the predictor;
* :func:`check_casebook` — the self-test the CLI and the
  ``casebook-replay`` CI job run: per-case dispositions under all
  three modes plus both convergence proofs (normalize-everything, and
  quarantine-then-replay, each bit-identical to ingesting the clean
  corpus — serially and sharded).

Convergence leans on the predictor algebra the parallel suite already
pins: ``update(u, v)`` is commutative, associative, and timestamp-
independent, so any path that applies the same multiset of clean
updates lands on bit-identical sketch arrays.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import SketchConfig
from repro.errors import ConfigurationError
from repro.stream.admission import fold_run
from repro.stream.deadletter import (
    DeadLetter,
    MemoryDeadLetters,
    PathLike,
    read_dead_letters,
)
from repro.stream.policies import (
    DEFAULT_MAX_TIMESTAMP,
    MODES,
    PolicySet,
    StreamGuard,
)
from repro.stream.sources import IteratorEdgeSource, SourceRecord

__all__ = [
    "Case",
    "CASEBOOK",
    "CASES_BY_REASON",
    "CorpusLine",
    "SyntheticCorpusGenerator",
    "ReplayReport",
    "replay_dead_letters",
    "CasebookReport",
    "check_casebook",
    "sketch_fingerprint",
]


class Case(NamedTuple):
    """One casebook entry: a named hostile-input class and its contract."""

    reason: str
    level: str            # "parse" | "stream"
    default_policy: str   # strict | quarantine | normalize
    repairable: bool      # has a sound normalize-mode repair
    repair: str           # what normalize does (or why it cannot)
    example: str          # the real-world incident class this models
    fixture: str          # a minimal hostile line (or record repr)


#: The taxonomy, in vocabulary order.  ``default_policy`` mirrors
#: :data:`~repro.stream.policies.DEFAULT_POLICIES` (pinned by tests).
CASEBOOK: Tuple[Case, ...] = (
    Case(
        "bad_arity", "parse", "quarantine", False,
        "none — a missing field cannot be invented",
        "truncated writes: a crashed exporter flushes half a row",
        "42",
    ),
    Case(
        "non_integer_vertex", "parse", "quarantine", False,
        "none — labelled data needs an explicit VertexRelabeler",
        "a labelled edge list (author names) fed to an integer pipeline",
        "alice bob",
    ),
    Case(
        "negative_vertex", "parse", "quarantine", False,
        "none — a negative id is an upstream sentinel leaking through",
        "-1 used as a null-vertex sentinel in a join",
        "-1 7",
    ),
    Case(
        "bad_timestamp", "parse", "quarantine", True,
        "substitute the stream offset (the untimestamped-row default)",
        "a date string in an epoch-seconds column",
        "3 4 yesterday",
    ),
    Case(
        "self_loop", "parse", "quarantine", True,
        "drop the edge (matches the eager readers)",
        "SNAP archives routinely carry self-loops",
        "5 5",
    ),
    Case(
        "bad_record_type", "parse", "quarantine", False,
        "none — an arbitrary object has no edge reading",
        "a JSON dict slipped into a tuple stream",
        "{'u': 1}",
    ),
    Case(
        "mixed_delimiter", "parse", "normalize", True,
        "re-split on the union delimiter class [\\s,;|]+",
        "a CSV export concatenated onto a whitespace edge list",
        "6,7",
    ),
    Case(
        "bad_encoding", "parse", "normalize", True,
        "strip control/format chars, NFKC-fold, canonicalize digits",
        "BOMs and ANSI color codes from shell pipelines; fullwidth digits",
        "﻿8 9",
    ),
    Case(
        "nonfinite_timestamp", "parse", "quarantine", True,
        "substitute the stream offset",
        "NaN propagated from a failed upstream aggregation",
        "10 11 nan",
    ),
    Case(
        "bad_op", "parse", "quarantine", False,
        "none — an unknown operation token has no sound reading",
        "an 'upsert' op from a CDC feed leaking into the add/delete grammar",
        "upd 1 2 3",
    ),
    Case(
        "duplicate_edge", "stream", "normalize", True,
        "drop the re-send (first occurrence already counted)",
        "at-least-once delivery re-sending a batch after an ack timeout",
        "0 1  (after 0 1 was accepted)",
    ),
    Case(
        "out_of_order_timestamp", "stream", "normalize", True,
        "clamp up to the stream's timestamp high-water mark",
        "a lagging partition flushing late records",
        "12 13 5  (after the high-water mark passed 1000)",
    ),
    Case(
        "far_future_timestamp", "stream", "quarantine", True,
        "clamp down to the configured horizon",
        "milliseconds written into a seconds column (x1000 unit error)",
        "14 15 4102444801",
    ),
    Case(
        "hub_anomaly", "stream", "quarantine", True,
        "drop edges past the per-vertex degree limit",
        "the ATLAS author-inflation case: one entity absorbs the graph",
        "0 16  (after vertex 0 reached the hub limit)",
    ),
    Case(
        "delete_unseen_edge", "stream", "quarantine", True,
        "drop the retraction (there is nothing to retract)",
        "a compaction job replaying tombstones for rows another shard owned",
        "- 17 18  (edge (17, 18) was never added)",
    ),
    Case(
        "unsupported_delete", "stream", "quarantine", True,
        "drop the retraction (an append-only sink cannot apply it)",
        "a retractable CDC feed pointed at an append-only consumer",
        "- 0 1  (consumer not in dynamic mode)",
    ),
)

CASES_BY_REASON: Dict[str, Case] = {case.reason: case for case in CASEBOOK}

#: Human-facing disposition labels used in manifests and tables.
DISPOSITIONS = ("applied", "dropped", "quarantined", "error")


def _disposition_of(verdict) -> str:
    """Map a :class:`GuardVerdict` onto the manifest vocabulary."""
    if verdict.disposition == "ok":
        return "applied"
    if verdict.disposition == "normalized":
        return "applied" if verdict.record is not None else "dropped"
    if verdict.disposition == "drop":
        return "dropped"
    if verdict.disposition == "strict":
        return "error"
    return "quarantined"


class CorpusLine(NamedTuple):
    """One labeled line of a synthetic hostile corpus.

    ``case`` is ``None`` for pristine lines.  ``expected`` maps each
    policy mode to the disposition this line must land with when *its*
    case runs under that mode.  ``clean_text`` is the line's form in
    the clean reference corpus (``None`` when the clean corpus simply
    omits it — duplicates, hub bursts, unrepairable damage).
    """

    text: str
    case: Optional[str]
    expected: Dict[str, str]
    clean_text: Optional[str]


_PRISTINE = {"strict": "applied", "quarantine": "applied", "normalize": "applied"}


def _hostile(normalize_outcome: str) -> Dict[str, str]:
    return {
        "strict": "error",
        "quarantine": "quarantined",
        "normalize": normalize_outcome,
    }


class SyntheticCorpusGenerator:
    """Emit labeled hostile corpora for casebook verification.

    The corpus is one text stream: a low-degree clean backbone (plus a
    hub vertex pre-loaded to exactly ``hub_degree_limit`` neighbors, so
    every injected burst edge trips the detector), followed by
    ``per_case`` instances of each representable case.  Timestamp-
    poisoning cases come last so their normalize-mode repairs cannot
    retroactively recolor earlier lines' dispositions.

    ``bad_record_type`` is the one case a *text* corpus cannot carry
    (it is by definition a non-text record); the policy matrix covers
    it with tuple-record fixtures instead.  ``unsupported_delete`` is
    likewise corpus-excluded: it is a property of the *consumer* (an
    append-only sink), not of any line, so it is pinned by unit tests
    against an append-only guard rather than injected here.

    ``with_deletes=True`` emits the fully dynamic variant: the clean
    backbone additionally carries matched add/delete pairs (valid
    retractions are pristine lines in every mode) and the hostile tail
    gains ``delete_unseen_edge`` injections.  A deletion-bearing corpus
    must be ingested under a delete-capable guard and a
    ``dynamic_mode`` predictor — :meth:`guard` wires the former
    automatically.

    Everything is a pure function of the constructor arguments — two
    generators with equal arguments emit identical corpora, which is
    what lets CI pin the manifest.
    """

    #: Cases injected into the text corpus, in emission order.
    TEXT_CASES = (
        "mixed_delimiter",
        "bad_encoding",
        "bad_arity",
        "bad_op",
        "non_integer_vertex",
        "negative_vertex",
        "self_loop",
        "duplicate_edge",
        "hub_anomaly",
        "bad_timestamp",
        "nonfinite_timestamp",
        "out_of_order_timestamp",
        "far_future_timestamp",
    )

    #: Extra cases a deletion-bearing corpus carries.
    DELETE_CASES = ("delete_unseen_edge",)

    def __init__(
        self,
        seed: int = 0,
        *,
        vertices: int = 30,
        clean_edges: int = 40,
        per_case: int = 2,
        hub_degree_limit: int = 6,
        max_timestamp: float = DEFAULT_MAX_TIMESTAMP,
        base_timestamp: float = 1_000.0,
        with_deletes: bool = False,
    ) -> None:
        if vertices < 4:
            raise ConfigurationError(f"vertices must be >= 4, got {vertices}")
        if per_case < 1:
            raise ConfigurationError(f"per_case must be >= 1, got {per_case}")
        backbone_degree = 2 * -(-clean_edges // vertices)  # 2 * ceil
        if hub_degree_limit <= backbone_degree:
            raise ConfigurationError(
                f"hub_degree_limit {hub_degree_limit} must exceed the backbone "
                f"degree bound {backbone_degree} or clean lines would trip it"
            )
        self.seed = seed
        self.vertices = vertices
        self.clean_edges = clean_edges
        self.per_case = per_case
        self.hub_degree_limit = hub_degree_limit
        self.max_timestamp = float(max_timestamp)
        self.base_timestamp = float(base_timestamp)
        self.with_deletes = with_deletes

    # ------------------------------------------------------------------

    def text_cases(self) -> Tuple[str, ...]:
        """The cases this corpus actually injects, in emission order."""
        if self.with_deletes:
            return self.TEXT_CASES + self.DELETE_CASES
        return self.TEXT_CASES

    def generate(self) -> List[CorpusLine]:
        rng = random.Random(self.seed)
        lines: List[CorpusLine] = []
        next_ts = [self.base_timestamp]

        def ts() -> float:
            next_ts[0] += 1.0
            return next_ts[0]

        fresh = [20_000]

        def fresh_pair() -> Tuple[int, int]:
            fresh[0] += 2
            return fresh[0] - 2, fresh[0] - 1

        def pristine(u: int, v: int) -> None:
            text = f"{u} {v} {ts():g}"
            lines.append(CorpusLine(text, None, dict(_PRISTINE), text))

        # Hub priming: vertex 0 reaches exactly the degree limit on
        # clean edges, so every later burst edge is the anomaly.
        for j in range(self.hub_degree_limit):
            pristine(0, 10_000 + j)
        # Low-degree clean backbone on vertices 1..V: concentric rings
        # (stride 1, 2, ...) keep every degree at most 2*ceil(E/V),
        # safely below the hub limit.
        backbone_pairs: List[Tuple[int, int]] = []
        stride = 1
        while len(backbone_pairs) < self.clean_edges:
            for i in range(1, self.vertices + 1):
                if len(backbone_pairs) >= self.clean_edges:
                    break
                partner = i + stride
                if partner > self.vertices:
                    partner -= self.vertices
                if partner == i:
                    continue
                backbone_pairs.append((min(i, partner), max(i, partner)))
            stride += 1
        for u, v in backbone_pairs:
            pristine(u, v)

        # Matched add/delete pairs: a valid retraction is a pristine
        # line of a deletion-bearing stream (every mode applies it).
        if self.with_deletes:
            for _ in range(self.per_case):
                u, v = fresh_pair()
                add_text = f"{u} {v} {ts():g}"
                lines.append(CorpusLine(add_text, None, dict(_PRISTINE), add_text))
                del_text = f"- {u} {v} {ts():g}"
                lines.append(CorpusLine(del_text, None, dict(_PRISTINE), del_text))

        # Hostile injections, per_case each, timestamp poisoners last.
        for case in self.text_cases():
            for _ in range(self.per_case):
                lines.append(self._inject(case, rng, backbone_pairs, ts, fresh_pair))
        return lines

    def _inject(self, case, rng, backbone_pairs, ts, fresh_pair) -> CorpusLine:
        if case == "mixed_delimiter":
            u, v = fresh_pair()
            return CorpusLine(f"{u},{v}", case, _hostile("applied"), f"{u} {v}")
        if case == "bad_encoding":
            u, v = fresh_pair()
            return CorpusLine(
                f"﻿{u} {v}\x00", case, _hostile("applied"), f"{u} {v}"
            )
        if case == "bad_arity":
            u, v = fresh_pair()
            return CorpusLine(f"{u} {v} {ts():g} trailing-junk", case, _hostile("quarantined"), None)
        if case == "bad_op":
            u, v = fresh_pair()
            token = ("upd", "upsert", "merge")[rng.randrange(3)]
            return CorpusLine(
                f"{token} {u} {v} {ts():g}", case, _hostile("quarantined"), None
            )
        if case == "delete_unseen_edge":
            u, v = fresh_pair()
            return CorpusLine(
                f"- {u} {v} {ts():g}", case, _hostile("dropped"), None
            )
        if case == "non_integer_vertex":
            u, v = fresh_pair()
            return CorpusLine(f"v{u} v{v}", case, _hostile("quarantined"), None)
        if case == "negative_vertex":
            u, v = fresh_pair()
            return CorpusLine(f"-{u} {v}", case, _hostile("quarantined"), None)
        if case == "self_loop":
            u, _ = fresh_pair()
            return CorpusLine(f"{u} {u}", case, _hostile("dropped"), None)
        if case == "duplicate_edge":
            u, v = backbone_pairs[rng.randrange(len(backbone_pairs))]
            return CorpusLine(f"{u} {v} {ts():g}", case, _hostile("dropped"), None)
        if case == "hub_anomaly":
            _, n = fresh_pair()
            return CorpusLine(f"0 {n} {ts():g}", case, _hostile("dropped"), None)
        if case == "bad_timestamp":
            u, v = fresh_pair()
            return CorpusLine(f"{u} {v} not-a-time", case, _hostile("applied"), f"{u} {v}")
        if case == "nonfinite_timestamp":
            u, v = fresh_pair()
            token = ("nan", "inf", "-inf")[rng.randrange(3)]
            return CorpusLine(f"{u} {v} {token}", case, _hostile("applied"), f"{u} {v}")
        if case == "out_of_order_timestamp":
            u, v = fresh_pair()
            stale = self.base_timestamp - 50.0
            return CorpusLine(f"{u} {v} {stale:g}", case, _hostile("applied"), f"{u} {v}")
        if case == "far_future_timestamp":
            u, v = fresh_pair()
            beyond = self.max_timestamp * 2.0
            return CorpusLine(f"{u} {v} {beyond:g}", case, _hostile("applied"), f"{u} {v}")
        raise ConfigurationError(f"no injector for case {case!r}")

    # ------------------------------------------------------------------

    def hostile_lines(self) -> List[str]:
        return [line.text for line in self.generate()]

    def clean_lines(self) -> List[str]:
        """The clean reference corpus: pristine lines plus the repaired
        form of every repairable hostile line, in stream order — what
        the hostile corpus must converge to under normalize (or under
        quarantine followed by a normalize replay)."""
        return [line.clean_text for line in self.generate() if line.clean_text is not None]

    def guard(self, policies: Optional[PolicySet]) -> StreamGuard:
        """A guard configured with this corpus's thresholds (delete-
        capable iff the corpus carries deletions)."""
        return StreamGuard(
            policies,
            hub_degree_limit=self.hub_degree_limit,
            max_timestamp=self.max_timestamp,
            supports_deletes=self.with_deletes,
        )


# ----------------------------------------------------------------------
# Dead-letter replay
# ----------------------------------------------------------------------


class ReplayReport(NamedTuple):
    """What :func:`replay_dead_letters` did with a quarantine file."""

    applied: int                        # repaired and folded into the predictor
    removed: int                        # repaired by removal (dupes, hub, loops)
    still_quarantined: Dict[str, int]   # per-reason counts that stayed out

    @property
    def total(self) -> int:
        return self.applied + self.removed + sum(self.still_quarantined.values())


def replay_dead_letters(
    letters: Union[PathLike, Sequence[DeadLetter]],
    *,
    guard: StreamGuard,
    predictor,
    policies: Optional[PolicySet] = None,
) -> ReplayReport:
    """Re-ingest quarantined records under a corrected policy.

    The triage loop documented in ``docs/OPERATIONS.md``: read the
    letters (a :class:`~repro.stream.deadletter.FileDeadLetters` path
    or an in-memory entry list), re-judge each raw against ``guard`` —
    which must be the *original* run's guard, so duplicates and hub
    bursts are judged against the already-ingested state — and fold
    every repaired edge into ``predictor``.

    Because predictor updates commute, appending the repaired edges
    after the fact converges bit-identically to having ingested the
    clean corpus in one pass (pinned by the casebook suite, serially
    and sharded).  Default ``policies`` is normalize-everything.
    """
    if isinstance(letters, (str,)) or hasattr(letters, "__fspath__"):
        letters = read_dead_letters(letters)
    active = policies if policies is not None else PolicySet.uniform("normalize")
    applied = removed = 0
    still: Dict[str, int] = {}
    for letter in sorted(letters, key=lambda entry: entry.offset):
        record = SourceRecord(letter.offset, letter.raw, letter.line_number)
        verdict = guard.evaluate(record, policies=active)
        outcome = _disposition_of(verdict)
        if outcome == "applied":
            # The runners' sink, one record at a time: a dynamic
            # predictor replays the typed operation (a repaired record
            # may be a retraction).
            typed = verdict.record
            fold_run(predictor, typed.op == "delete", [typed.u], [typed.v], [typed.timestamp])
            applied += 1
        elif outcome == "dropped":
            removed += 1
        else:  # quarantined or error: the record stays out
            reason = verdict.reason or "unknown"
            still[reason] = still.get(reason, 0) + 1
    return ReplayReport(applied=applied, removed=removed, still_quarantined=still)


# ----------------------------------------------------------------------
# The casebook self-check (CLI + CI gate)
# ----------------------------------------------------------------------


def sketch_fingerprint(predictor) -> str:
    """A collision-resistant digest of the full sketch state.

    Two predictors share a fingerprint iff their exported arrays are
    bit-identical — the equality the convergence proofs assert.
    """
    arrays = predictor.export_arrays()
    digest = hashlib.sha256()
    for array in (
        arrays.vertex_ids,
        arrays.values,
        arrays.witnesses,
        arrays.update_counts,
        arrays.degrees,
    ):
        if array is None:
            digest.update(b"<none>")
        else:
            digest.update(str(array.shape).encode())
            digest.update(memoryview(np.ascontiguousarray(array)))
    return digest.hexdigest()


class CaseModeRow(NamedTuple):
    """One row of the disposition table: a case under one mode."""

    case: str
    mode: str
    expected: str
    total: int
    matched: int


class CasebookReport(NamedTuple):
    """Everything ``repro-linkpred casebook`` prints and CI gates on."""

    rows: List[CaseModeRow]
    mismatches: List[str]
    normalize_converged: bool
    replay_converged: bool
    sharded_normalize_converged: Optional[bool]
    sharded_replay_converged: Optional[bool]

    @property
    def ok(self) -> bool:
        return (
            not self.mismatches
            and self.normalize_converged
            and self.replay_converged
            and self.sharded_normalize_converged is not False
            and self.sharded_replay_converged is not False
        )


def _run_guard_table(corpus: List[CorpusLine], generator: SyntheticCorpusGenerator):
    """Per-line dispositions of the corpus under each uniform mode."""
    table: Dict[str, List[str]] = {}
    for mode in MODES:
        guard = generator.guard(PolicySet.uniform(mode))
        dispositions = []
        for offset, line in enumerate(corpus):
            record = SourceRecord(offset, line.text, offset + 1)
            dispositions.append(_disposition_of(guard.evaluate(record)))
        table[mode] = dispositions
    return table


def check_casebook(
    *,
    seed: int = 0,
    per_case: int = 2,
    hub_degree_limit: int = 6,
    config: Optional[SketchConfig] = None,
    workers: int = 0,
    with_deletes: bool = False,
) -> CasebookReport:
    """Run the whole casebook and report dispositions + convergence.

    ``workers > 1`` additionally proves both convergence properties
    through the sharded runner (spawning real worker processes).
    ``with_deletes`` runs the deletion-bearing corpus variant instead:
    delete-capable guards, ``dynamic_mode`` predictors, and the
    ``delete_unseen_edge`` case in the matrix — the same convergence
    proofs now exercising the retraction path end to end.
    """
    from repro.stream.runner import StreamRunner

    generator = SyntheticCorpusGenerator(
        seed,
        per_case=per_case,
        hub_degree_limit=hub_degree_limit,
        with_deletes=with_deletes,
    )
    corpus = generator.generate()
    config = config or SketchConfig(k=16, seed=seed, dynamic_mode=with_deletes)
    if with_deletes and not config.dynamic_mode:
        raise ConfigurationError(
            "a deletion-bearing corpus needs dynamic_mode=True in its config"
        )

    # -- disposition matrix -------------------------------------------
    table = _run_guard_table(corpus, generator)
    rows: List[CaseModeRow] = []
    mismatches: List[str] = []
    for mode in MODES:
        per_case_counts: Dict[str, Tuple[int, int]] = {}
        for offset, line in enumerate(corpus):
            if line.case is None:
                continue
            expected = line.expected[mode]
            observed = table[mode][offset]
            total, matched = per_case_counts.get(line.case, (0, 0))
            per_case_counts[line.case] = (total + 1, matched + (observed == expected))
            if observed != expected:
                mismatches.append(
                    f"{line.case} under {mode}: line {offset} ({line.text!r}) "
                    f"landed {observed}, expected {expected}"
                )
        for case in generator.text_cases():
            total, matched = per_case_counts[case]
            expected = corpus[
                next(i for i, l in enumerate(corpus) if l.case == case)
            ].expected[mode]
            rows.append(CaseModeRow(case, mode, expected, total, matched))

    # -- convergence: normalize-everything, and quarantine followed by
    # a dead-letter replay under normalize, each through both runners --
    hostile = [line.text for line in corpus]
    clean = [line.clean_text for line in corpus if line.clean_text is not None]
    reference = StreamRunner(
        IteratorEdgeSource(clean, name="clean"), config=config
    )
    reference.run()
    clean_print = sketch_fingerprint(reference.predictor)

    def converges(runner_class, **options) -> Tuple[bool, bool]:
        normalize_runner = runner_class(
            IteratorEdgeSource(hostile, name="hostile"),
            config=config,
            guard=generator.guard(PolicySet.uniform("normalize")),
            **options,
        )
        normalize_runner.run()
        sink = MemoryDeadLetters(capacity=len(hostile) + 1)
        quarantine_runner = runner_class(
            IteratorEdgeSource(hostile, name="hostile"),
            config=config,
            dead_letters=sink,
            guard=generator.guard(PolicySet.uniform("quarantine")),
            **options,
        )
        quarantine_runner.run()
        replay_dead_letters(
            sink.entries,
            guard=quarantine_runner.guard,
            predictor=quarantine_runner.predictor,
            policies=PolicySet.uniform("normalize"),
        )
        return (
            sketch_fingerprint(normalize_runner.predictor) == clean_print,
            sketch_fingerprint(quarantine_runner.predictor) == clean_print,
        )

    normalize_converged, replay_converged = converges(StreamRunner)
    sharded_normalize = sharded_replay = None
    if workers > 1:
        from repro.parallel import ShardedRunner

        sharded_normalize, sharded_replay = converges(ShardedRunner, workers=workers)

    return CasebookReport(
        rows=rows,
        mismatches=mismatches,
        normalize_converged=normalize_converged,
        replay_converged=replay_converged,
        sharded_normalize_converged=sharded_normalize,
        sharded_replay_converged=sharded_replay,
    )
