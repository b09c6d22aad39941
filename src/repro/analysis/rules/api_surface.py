"""RL005 — the facade is the API; the API is the facade.

:mod:`repro.api` is the stable, five-verb surface embedders are told
to program against, and :mod:`repro` re-exports the supporting types.
Deep modules stay importable for power users, but two kinds of drift
quietly erode the contract:

* a public ``def`` added to ``repro/api.py`` without an ``__all__``
  entry (or an ``__all__`` entry whose def was renamed away) — the
  facade's docs and its reality diverge;
* an example or docstring snippet that imports a *facade-available*
  name from a deep path (``from repro.core import SketchConfig``) —
  copy-paste propagates the deep spelling, and the facade stops being
  load-bearing.

RL005 therefore checks four things:

1. in ``repro/api.py``: the ``__all__`` literal is exactly the set of
   public top-level ``def``/``class`` names;
2. in any module with a literal ``__all__``: every entry is actually
   bound at module top level (def, class, assignment, or import) or
   listed in the module's lazy-export table;
3. in a package that exports lazily (``__getattr__, __dir__ =
   lazy_exports(__name__, {module: [names]})``, see
   :mod:`repro._lazy`): the table is a literal, and each entry's module
   exists and binds the name at its top level — a typo fails lint
   rather than the first attribute access;
4. in ``examples/`` and in ``>>>`` docstring snippets anywhere: a name
   exported by the facade is imported *from* the facade (``repro`` or
   ``repro.api``), never from a deep module; underscore-private names
   are never imported in examples at all.

Names the facade does **not** export (``format_table``, the dataset
loaders, directed variants, ...) are exactly the power-user surface —
deep imports of those are fine and are not flagged.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import Finding, ModuleContext
from repro.analysis.rules.base import Rule, call_name, literal_strings

__all__ = ["ApiSurfaceRule", "FACADE_MODULES"]

#: Modules whose exports *are* the supported surface.
FACADE_MODULES = ("repro", "repro.api")

#: The helper whose call binds a package's lazy ``__getattr__``/``__dir__``.
LAZY_EXPORTS_CALL = "lazy_exports"

#: A lazy table flattened: exported name → (module, the node naming it).
LazyTable = Dict[str, Tuple[str, ast.AST]]

_SNIPPET_IMPORT_RE = re.compile(
    r">>>\s+from\s+(repro(?:\.[A-Za-z0-9_.]+)?)\s+import\s+([A-Za-z0-9_,\s]+)"
)


class ApiSurfaceRule(Rule):
    rule_id = "RL005"
    title = "repro.api.__all__ matches its defs; examples import through the facade"

    def __init__(
        self,
        facade_modules: Sequence[str] = FACADE_MODULES,
        facade_names: Optional[Sequence[str]] = None,
    ) -> None:
        self.facade_modules = tuple(facade_modules)
        self._facade_names: Optional[FrozenSet[str]] = (
            None if facade_names is None else frozenset(facade_names)
        )
        self._parsed: Dict[Path, Optional[ast.Module]] = {}

    def reset(self) -> None:
        self._parsed = {}

    @property
    def facade_names(self) -> FrozenSet[str]:
        """Union of the facade modules' live ``__all__`` lists.

        Resolved lazily from the running package so that renaming a
        facade export immediately re-scopes the rule — the lint pass
        checks the contract as it is, not a copy of it.
        """
        if self._facade_names is None:
            import repro
            import repro.api

            self._facade_names = frozenset(repro.__all__) | frozenset(repro.api.__all__)
        return self._facade_names

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        exported = self._all_literal(ctx.tree)
        lazy, lazy_findings = self._lazy_table(ctx)
        findings.extend(lazy_findings)
        if ctx.package_rel == "api.py":
            findings.extend(self._check_facade_module(ctx, exported))
        if exported is not None:
            findings.extend(self._check_all_resolves(ctx, exported, lazy))
        findings.extend(self._check_lazy_targets(ctx, lazy))
        if ctx.is_example:
            findings.extend(self._check_example_imports(ctx))
        findings.extend(self._check_docstring_snippets(ctx))
        return findings

    # -- facade definition ----------------------------------------------

    @staticmethod
    def _all_literal(tree: ast.Module) -> Optional[ast.Assign]:
        for node in tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and node.targets[0].id == "__all__" \
                    and isinstance(node.value, (ast.List, ast.Tuple)):
                return node
        return None

    def _check_facade_module(
        self, ctx: ModuleContext, exported: Optional[ast.Assign]
    ) -> Iterable[Finding]:
        if exported is None:
            return [
                ctx.finding(
                    1, self.rule_id,
                    "repro/api.py must pin its surface with a literal __all__",
                )
            ]
        names: Set[str] = set()
        for element in exported.value.elts:  # type: ignore[union-attr]
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                names.add(element.value)
        public_defs = {
            node.name
            for node in ctx.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
        }
        findings: List[Finding] = []
        for missing in sorted(public_defs - names):
            findings.append(
                ctx.finding(
                    exported, self.rule_id,
                    f"public def {missing!r} in repro/api.py is not listed in "
                    f"__all__ (the facade surface must be exact — export it or "
                    f"prefix it with an underscore)",
                )
            )
        for extra in sorted(names - public_defs):
            if self._bound_at_top_level(ctx.tree, extra):
                continue  # re-exported value (e.g. a dataclass imported here)
            findings.append(
                ctx.finding(
                    exported, self.rule_id,
                    f"__all__ entry {extra!r} in repro/api.py has no public "
                    f"definition behind it",
                )
            )
        return findings

    def _check_all_resolves(
        self, ctx: ModuleContext, exported: ast.Assign, lazy: LazyTable
    ) -> Iterable[Finding]:
        findings: List[Finding] = []
        for element in exported.value.elts:  # type: ignore[union-attr]
            if not (isinstance(element, ast.Constant) and isinstance(element.value, str)):
                findings.append(
                    ctx.finding(
                        element, self.rule_id,
                        "__all__ must contain only string literals",
                    )
                )
                continue
            if element.value in lazy:
                continue
            if not self._bound_at_top_level(ctx.tree, element.value):
                findings.append(
                    ctx.finding(
                        element, self.rule_id,
                        f"__all__ entry {element.value!r} is not bound at module "
                        f"top level (stale export?)",
                    )
                )
        return findings

    # -- lazy exports ---------------------------------------------------

    def _lazy_table(self, ctx: ModuleContext) -> Tuple[LazyTable, List[Finding]]:
        """The module's lazy-export table, and a finding for each table
        the rule cannot read statically."""
        table: LazyTable = {}
        findings: List[Finding] = []
        for call in self._lazy_calls(ctx.tree):
            entries = self._literal_entries(call)
            if entries is None:
                findings.append(
                    ctx.finding(
                        call, self.rule_id,
                        f"{LAZY_EXPORTS_CALL}() needs a literal {{module: [names]}} "
                        f"dict as its second argument",
                    )
                )
            else:
                table.update(entries)
        return table, findings

    @staticmethod
    def _literal_entries(call: ast.Call) -> Optional[LazyTable]:
        mapping = call.args[1] if len(call.args) > 1 else None
        if not isinstance(mapping, ast.Dict):
            return None
        entries: LazyTable = {}
        for key, value in zip(mapping.keys, mapping.values):
            names = literal_strings(value)
            if not isinstance(key, ast.Constant) or not isinstance(key.value, str) \
                    or names is None:
                return None
            entries.update((name, (key.value, value)) for name in names)
        return entries

    @staticmethod
    def _lazy_calls(tree: ast.Module) -> List[ast.Call]:
        return [
            node.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and call_name(node.value) == LAZY_EXPORTS_CALL
        ]

    def _check_lazy_targets(self, ctx: ModuleContext, lazy: LazyTable) -> Iterable[Finding]:
        findings: List[Finding] = []
        for name, (module, node) in lazy.items():
            path = self._module_path(ctx.path, module)
            if path is None:
                findings.append(
                    ctx.finding(
                        node, self.rule_id,
                        f"lazy export {name!r}: module {module!r} has no source "
                        f"file beside this package",
                    )
                )
                continue
            tree = self._parse(path)
            if tree is not None and not self._bound_at_top_level(tree, name):
                findings.append(
                    ctx.finding(
                        node, self.rule_id,
                        f"lazy export {name!r}: {module} does not bind it at "
                        f"module top level",
                    )
                )
        return findings

    @staticmethod
    def _module_path(origin: Path, module: str) -> Optional[Path]:
        """The source file of ``module`` (a dotted name), located from the
        file that names it: the nearest ancestor directory called like the
        module's top-level package is that package."""
        parts = module.split(".")
        for directory in origin.resolve().parents:
            if directory.name == parts[0]:
                base = directory.parent.joinpath(*parts)
                for path in (base.with_suffix(".py"), base / "__init__.py"):
                    if path.is_file():
                        return path
                return None
        return None

    def _parse(self, path: Path) -> Optional[ast.Module]:
        if path not in self._parsed:
            try:
                self._parsed[path] = ast.parse(path.read_text(encoding="utf-8"))
            except SyntaxError:
                self._parsed[path] = None  # RL000 reports it in its own file
        return self._parsed[path]

    @staticmethod
    def _bound_at_top_level(tree: ast.Module, name: str) -> bool:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name == name:
                    return True
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        return True
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name) and node.target.id == name:
                    return True
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".", 1)[0]
                    if bound == name:
                        return True
            elif isinstance(node, (ast.If, ast.Try)):
                # TYPE_CHECKING / optional-dependency guards
                for sub in ast.walk(node):
                    if isinstance(sub, (ast.Import, ast.ImportFrom)):
                        for alias in sub.names:
                            bound = alias.asname or alias.name.split(".", 1)[0]
                            if bound == name:
                                return True
                    elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                            and sub.name == name:
                        return True
                    elif isinstance(sub, ast.Assign):
                        for target in sub.targets:
                            if isinstance(target, ast.Name) and target.id == name:
                                return True
        return False

    # -- example imports ------------------------------------------------

    def _check_example_imports(self, ctx: ModuleContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        facade = self.facade_names
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            module = node.module
            if module != "repro" and not module.startswith("repro."):
                continue
            deep = module not in self.facade_modules
            for alias in node.names:
                if alias.name.startswith("_"):
                    findings.append(
                        ctx.finding(
                            node, self.rule_id,
                            f"example imports private name {alias.name!r} from "
                            f"{module} (examples demonstrate the supported "
                            f"surface only)",
                        )
                    )
                elif deep and alias.name in facade:
                    findings.append(
                        ctx.finding(
                            node, self.rule_id,
                            f"example imports {alias.name!r} from {module}, but "
                            f"the facade exports it — import it from 'repro' so "
                            f"examples exercise the supported surface",
                        )
                    )
        return findings

    # -- docstring snippets ---------------------------------------------

    def _check_docstring_snippets(self, ctx: ModuleContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        facade = self.facade_names
        for owner in ast.walk(ctx.tree):
            if not isinstance(
                owner, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            docstring_node = self._docstring_node(owner)
            if docstring_node is None:
                continue
            text = docstring_node.value
            base_line = docstring_node.lineno
            for offset, line in enumerate(text.splitlines()):
                match = _SNIPPET_IMPORT_RE.search(line)
                if match is None:
                    continue
                module = match.group(1)
                if module in self.facade_modules:
                    continue
                imported = [name.strip() for name in match.group(2).split(",")]
                for name in imported:
                    if name in facade:
                        findings.append(
                            ctx.finding(
                                base_line + offset, self.rule_id,
                                f"docstring snippet imports {name!r} from "
                                f"{module}; the facade exports it — spell the "
                                f"snippet 'from repro import {name}'",
                            )
                        )
        return findings

    @staticmethod
    def _docstring_node(owner: ast.AST) -> Optional[ast.Constant]:
        body = getattr(owner, "body", None)
        if not body:
            return None
        first = body[0]
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                and isinstance(first.value.value, str):
            return first.value
        return None
