"""repro-lint: the codebase's contracts as a gating static-analysis pass.

The repo's real value is its *enforced* invariants — bit-identical
scalar/block/sharded ingestion, a closed dead-letter vocabulary, a
pinned ``repro.api`` surface, immutable-generation hot-swap — yet each
was guarded only by example-based tests that rot silently when a new
call site forgets the contract.  This package turns those contracts
into AST-level rules checked on every commit:

========  ===========================================================
RL001     **determinism** — kernel/hot-path modules must not call
          wall clocks or unseeded randomness, compare floats with
          ``==``/``!=``, or iterate sets/dicts into returned
          containers (hash-order leaks into results).
RL002     **error taxonomy** — raises use :mod:`repro.errors` classes
          (no bare ``ValueError``/``RuntimeError``), and every
          dead-letter reason literal is a member of the closed
          :data:`repro.stream.deadletter.REASONS` vocabulary
          (cross-checked by importing it, so taxonomy drift fails
          the build).
RL003     **metrics hygiene** — instrument names match
          ``^[a-z][a-z0-9_]+$``, no name is registered twice with
          different instrument kinds, label sets are literal tuples.
RL004     **concurrency boundary** — in modules mixing threads and
          asyncio, ``self.<attr>`` written on both sides of the
          boundary must be in the module's declared single-assignment
          publication set (the immutable-Generation pattern).
RL005     **API surface** — ``repro.api.__all__`` exactly matches its
          public defs, every lazy-export table entry's module binds
          the name, and examples / docstring snippets import facade
          names through the facade.
========  ===========================================================

Usage::

    python -m repro.analysis src/repro examples          # text, rc=1 on new findings
    python -m repro.analysis src/repro --format json
    repro-linkpred lint src/repro examples               # same engine via the CLI

Per-line suppression (justify it in an adjacent comment)::

    started = time.perf_counter()  # repro-lint: disable=RL001

Accepted legacy findings live in a checked-in baseline
(``lint-baseline.json``); only *new* findings gate.  See
``docs/LINT.md`` for the rule catalog and how to add a rule.
"""

from repro.analysis.engine import (
    Baseline,
    BaselineEntry,
    Finding,
    LintReport,
    LintRunner,
    ModuleContext,
)
from repro.analysis.cli import main
from repro.analysis.rules import default_rules

__all__ = [
    "Baseline",
    "BaselineEntry",
    "Finding",
    "LintReport",
    "LintRunner",
    "ModuleContext",
    "default_rules",
    "main",
]
