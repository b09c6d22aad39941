"""Lazy package exports: the same public surface, loaded on first use.

Every package ``__init__`` but ``repro.hashing`` binds its exports
through :func:`repro._lazy.lazy_exports`.  These tests pin that the
surface did not change (every ``__all__`` name resolves, is listed by
``dir()`` and is the object its module defines) and that the import
cost did: ``import repro.api`` and ``repro ingest --help`` load neither
the HTTP server nor the evaluation harness nor the method registry, and
static serving does not load the ingest runtime.
Checks of the cold import path run in a fresh interpreter, because the
test process has long since imported everything.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import Dict, List

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PACKAGES = [
    "repro",
    "repro.core",
    "repro.eval",
    "repro.exact",
    "repro.graph",
    "repro.hashing",
    "repro.obs",
    "repro.parallel",
    "repro.serve",
    "repro.sketches",
    "repro.stream",
]

#: What ``import repro.api`` and ``repro ingest --help`` must not load.
HEAVY_MODULES = [
    "asyncio",
    "repro.serve.server",
    "repro.eval",
    "repro.core.biased",
    "repro.core.registry",
    "repro.exact.baselines",
]


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this checkout; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def lazy_table(package: str) -> Dict[str, str]:
    """The package's lazy table read from its source: name → module."""
    source = Path(importlib.import_module(package).__file__).read_text(encoding="utf-8")
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) \
                and getattr(node.value.func, "id", None) == "lazy_exports":
            table = ast.literal_eval(node.value.args[1])
            return {name: module for module, names in table.items() for name in names}
    return {}


class TestSurface:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_export_is_its_modules_object(self, package):
        module = importlib.import_module(package)
        where = lazy_table(package)
        listed = dir(module)
        for name in module.__all__:
            value = getattr(module, name)
            assert name in listed, name
            if name in where:
                assert value is getattr(importlib.import_module(where[name]), name), name
            else:
                assert name in vars(module), name  # bound eagerly

    @pytest.mark.parametrize("package", PACKAGES)
    def test_exports_resolve_in_a_fresh_interpreter(self, package):
        # Cold: nothing but the package imported, so each name goes
        # through __getattr__ and any import cycle would surface here.
        out = run_python(
            f"""
            import importlib, json
            package = importlib.import_module("{package}")
            missing = [n for n in package.__all__ if n not in dir(package)]
            for name in package.__all__:
                getattr(package, name)
            print(json.dumps(missing))
            """
        )
        assert json.loads(out) == []


class TestServeName:
    def test_facade_function_survives_subpackage_imports(self):
        out = run_python(
            """
            import repro
            import repro.api
            checks = [repro.serve is repro.api.serve]
            import repro.serve.engine
            import repro.serve.server
            checks.append(repro.serve is repro.api.serve)
            from repro import serve
            checks.append(serve is repro.api.serve)
            print(checks)
            """
        )
        assert out.strip() == "[True, True, True]"

    def test_subpackage_first_import_keeps_the_function(self):
        out = run_python(
            """
            import sys
            import repro.serve.engine
            import repro
            import repro.api
            engine = sys.modules["repro.serve.engine"]
            print(repro.serve is repro.api.serve, repro.QueryEngine is engine.QueryEngine)
            """
        )
        assert out.strip() == "True True"


class TestColdImports:
    def heavy_loaded(self, code: str) -> List[str]:
        out = run_python(
            code
            + textwrap.dedent(
                f"""
                import json, sys
                print("MODULES", json.dumps([m for m in {HEAVY_MODULES!r} if m in sys.modules]))
                """
            )
        )
        marker = [line for line in out.splitlines() if line.startswith("MODULES ")]
        return json.loads(marker[-1][len("MODULES "):])

    def test_import_api_loads_no_heavy_modules(self):
        assert self.heavy_loaded("import repro.api\n") == []

    def test_ingest_help_loads_no_heavy_modules(self):
        loaded = self.heavy_loaded(
            textwrap.dedent(
                """
                import runpy, sys
                sys.argv = ["repro.cli", "ingest", "--help"]
                try:
                    runpy.run_module("repro.cli", run_name="__main__")
                except SystemExit as exit:
                    assert exit.code == 0, exit.code
                """
            )
        )
        assert loaded == []

    def test_static_serve_loads_no_ingest_runtime(self, tmp_path):
        from repro import SketchConfig, ingest

        ingest([(1, 2), (2, 3)], config=SketchConfig(k=8), checkpoint_dir=tmp_path,
               checkpoint_every=1)
        out = run_python(
            f"""
            import sys
            from repro import api
            api.serve({str(tmp_path)!r}, port=0)
            print([m for m in ("repro.stream.runner", "repro.stream.admission")
                   if m in sys.modules])
            """
        )
        assert out.strip() == "[]"

    def test_submodules_resolve_as_attributes(self):
        out = run_python(
            """
            import repro, repro.stream
            seen = repro.stream.seen
            print(seen.__name__, repro.stream.__name__, hasattr(repro.core, "no_such_name"))
            """
        )
        assert out.split() == ["repro.stream.seen", "repro.stream", "False"]


class TestHelper:
    @pytest.fixture()
    def package(self, tmp_path, monkeypatch):
        """A throwaway package ``lazypkg`` with one lazy export."""
        root = tmp_path / "lazypkg"
        root.mkdir()
        (root / "__init__.py").write_text(
            "from repro._lazy import lazy_exports\n"
            "__all__ = ['thing']\n"
            "__getattr__, __dir__ = lazy_exports(__name__, {'lazypkg.mod': ['thing']})\n"
        )
        (root / "mod.py").write_text("thing = object()\n")
        (root / "broken.py").write_text("import lazypkg_no_such_dependency\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        yield importlib.import_module("lazypkg")
        for name in [m for m in sys.modules if m == "lazypkg" or m.startswith("lazypkg.")]:
            del sys.modules[name]

    def test_submodule_loads_on_first_access_and_is_cached(self, package):
        assert "lazypkg.mod" not in sys.modules
        assert "thing" in dir(package)
        thing = package.thing
        assert thing is sys.modules["lazypkg.mod"].thing
        assert vars(package)["thing"] is thing  # later reads skip __getattr__

    def test_unknown_name_raises_attribute_error(self, package):
        with pytest.raises(AttributeError, match="'lazypkg' has no attribute 'nope'"):
            package.nope
        assert not hasattr(package, "nope")

    def test_missing_dependency_of_a_submodule_is_not_masked(self, package):
        with pytest.raises(ModuleNotFoundError, match="lazypkg_no_such_dependency"):
            package.broken
