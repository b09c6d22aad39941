"""Lazy package exports (PEP 562).

A package ``__init__`` that imports its submodules to re-export their
names loads all of them whenever anything under the package is
imported: ``repro ingest`` would compile the HTTP server and the
evaluation harness before its first edge.  Instead, each package
declares where its names live and binds the pair this module returns::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.core.config": ["SketchConfig", "required_k"],
        "repro.core.predictor": ["MinHashLinkPredictor"],
    })

A name's submodule is imported on first access and the value is then
bound on the package, so later lookups are ordinary attribute reads.
Any other attribute that names a submodule imports it, so code that
reaches a submodule through its package (``repro.stream.seen`` after
``import repro.stream``) keeps working.  ``repro-lint`` (RL005) checks
statically that every table entry's module binds the name.
"""

from __future__ import annotations

import sys
from types import ModuleType
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Module ``__getattr__`` and ``__dir__`` for ``package``.

    ``table`` maps an absolute module name to the names it supplies.
    """
    where: Dict[str, str] = {
        name: module for module, names in table.items() for name in names
    }

    def __getattr__(name: str) -> object:
        if name in where:
            value = getattr(_load(where[name]), name)
            setattr(sys.modules[package], name, value)
            return value
        submodule = f"{package}.{name}"
        try:
            return _load(submodule)
        except ModuleNotFoundError as error:
            if error.name != submodule:
                raise  # the submodule exists but one of its imports is missing
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__


def _load(module: str) -> ModuleType:
    # The import statement's machinery, unlike importlib.import_module,
    # reports to ``python -X importtime``: lazily loaded modules stay in
    # the start-up profile.
    __import__(module)
    return sys.modules[module]
