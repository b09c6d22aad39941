"""RL002 — the error taxonomy and the closed dead-letter vocabulary.

Two halves, one contract: *failures have names*.

**Raises.**  Every deliberate ``raise`` in the library uses a class
from :mod:`repro.errors` (so embedders catch one base class and the
*kind* of failure is machine-readable) or a module-local exception
type.  Bare stdlib raises — ``ValueError``, ``RuntimeError``,
``KeyError``, ... — are flagged; ``NotImplementedError`` on abstract
hooks is allowed, and so is ``AttributeError`` inside a ``__getattr__``
(module-level under PEP 562, or a class's), which the attribute
protocol requires for a missing name.

**Reason literals.**  The dead-letter vocabulary
(:data:`repro.stream.deadletter.REASONS`) is closed on purpose:
dashboards alert per reason and the casebook replays per reason, so a
reason string that exists only at one call site is silent drift.  The
rule imports the live vocabulary (not a copy — adding a reason without
registering it *is* the failure mode being guarded) and checks every
string literal passed in reason position to the reason-carrying
constructors and policy lookups, plus the keys of any module-level
``*POLICIES*`` dict literal.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.analysis.engine import Finding, ModuleContext
from repro.analysis.rules.base import Rule, call_name
from repro.stream.deadletter import REASONS

__all__ = ["TaxonomyRule", "BANNED_BUILTIN_RAISES", "REASON_CALL_SIGNATURES"]

#: Builtin exception types that must not be raised directly on library
#: paths — each has a fine-grained repro.errors equivalent.
BANNED_BUILTIN_RAISES = frozenset(
    {
        "ValueError",
        "TypeError",
        "RuntimeError",
        "KeyError",
        "IndexError",
        "IOError",
        "OSError",
        "Exception",
        "BaseException",
        "LookupError",
        "ArithmeticError",
        "AttributeError",
    }
)

#: Callees whose argument carries a dead-letter reason: simple callee
#: name → positional index of the reason argument (``None`` = keyword
#: ``reason=`` only).  The keyword spelling is checked for all of them.
REASON_CALL_SIGNATURES: Dict[str, Optional[int]] = {
    "ContractViolation": 0,
    "mode_for": 0,
    "_judge": 0,
    "DeadLetter": 1,
    "DeadLetterError": None,
    "StreamFormatError": None,
}


class TaxonomyRule(Rule):
    rule_id = "RL002"
    title = "raises use the repro.errors taxonomy; reasons stay in the closed vocabulary"

    def __init__(
        self,
        reasons: Sequence[str] = REASONS,
        banned: Sequence[str] = BANNED_BUILTIN_RAISES,
        reason_calls: Optional[Dict[str, Optional[int]]] = None,
    ) -> None:
        self.reasons = frozenset(reasons)
        self.banned = frozenset(banned)
        self.reason_calls = dict(REASON_CALL_SIGNATURES if reason_calls is None else reason_calls)

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        if ctx.is_example:
            return []
        findings: List[Finding] = []
        local_classes = {
            node.name for node in ctx.tree.body if isinstance(node, ast.ClassDef)
        }
        getattr_raises = {
            id(node)
            for function in ast.walk(ctx.tree)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            and function.name == "__getattr__"
            for node in ast.walk(function)
            if isinstance(node, ast.Raise)
        }
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Raise):
                findings.extend(
                    self._check_raise(ctx, node, local_classes, id(node) in getattr_raises)
                )
            elif isinstance(node, ast.Call):
                findings.extend(self._check_reason_call(ctx, node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                findings.extend(self._check_policies_dict(ctx, node))
        return findings

    def _check_raise(
        self,
        ctx: ModuleContext,
        node: ast.Raise,
        local_classes: Set[str],
        in_getattr: bool,
    ) -> Iterable[Finding]:
        exc = node.exc
        if isinstance(exc, ast.Call):
            callee = exc.func
        else:
            callee = exc  # ``raise ValueError`` without arguments
        if not isinstance(callee, ast.Name):
            return []
        name = callee.id
        if name in local_classes or name not in self.banned:
            return []
        if in_getattr and name == "AttributeError":
            return []  # the attribute protocol's own signal for a missing name
        return [
            ctx.finding(
                node, self.rule_id,
                f"raise of bare {name} on a library path (use the repro.errors "
                f"taxonomy so callers can catch ReproError and tell failure "
                f"kinds apart)",
            )
        ]

    def _check_reason_call(self, ctx: ModuleContext, node: ast.Call) -> Iterable[Finding]:
        name = call_name(node)
        if name is None or name not in self.reason_calls:
            return []
        findings: List[Finding] = []
        position = self.reason_calls[name]
        if position is not None and len(node.args) > position:
            findings.extend(self._check_reason_literal(ctx, node.args[position], name))
        for keyword in node.keywords:
            if keyword.arg == "reason":
                findings.extend(self._check_reason_literal(ctx, keyword.value, name))
        return findings

    def _check_reason_literal(
        self, ctx: ModuleContext, node: ast.AST, callee: str
    ) -> Iterable[Finding]:
        if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
            return []
        if node.value in self.reasons:
            return []
        return [
            ctx.finding(
                node, self.rule_id,
                f"dead-letter reason {node.value!r} passed to {callee} is not in "
                f"the closed REASONS vocabulary (register it in "
                f"repro.stream.deadletter.REASONS and docs/CASEBOOK.md first)",
            )
        ]

    def _check_policies_dict(self, ctx: ModuleContext, node: ast.AST) -> Iterable[Finding]:
        if isinstance(node, ast.Assign):
            if len(node.targets) != 1:
                return []
            target = node.targets[0]
        elif isinstance(node, ast.AnnAssign):
            target = node.target
        else:
            return []
        if not isinstance(target, ast.Name) or "POLICIES" not in target.id:
            return []
        if not isinstance(node.value, ast.Dict):
            return []
        findings: List[Finding] = []
        for key in node.value.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str) \
                    and key.value not in self.reasons:
                findings.append(
                    ctx.finding(
                        key, self.rule_id,
                        f"policy case {key.value!r} is not in the closed REASONS "
                        f"vocabulary",
                    )
                )
        return findings
