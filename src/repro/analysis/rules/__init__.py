"""The repro-lint rule catalog.

============  =======================================================
rule id       invariant
============  =======================================================
``RL001``     hot-path modules are deterministic (no clocks, no
              ambient randomness, no float ``==``, no hash-order
              leaking into returned containers)
``RL002``     raises use the :mod:`repro.errors` taxonomy; dead-letter
              reason literals stay inside the closed ``REASONS``
              vocabulary
``RL003``     instrument names are lowercase snake_case, one name has
              one kind across the tree, label sets are literal
``RL004``     attributes written on both sides of a thread/asyncio
              boundary are declared in the module's publication set
``RL005``     ``repro.api.__all__`` matches its public defs; lazy
              export tables name modules that bind each name; examples
              and docstring snippets import facade names from the
              facade
============  =======================================================

:func:`default_rules` builds one fresh instance of each — rules carry
cross-file state (RL003's kind registry), so a runner must never share
instances between concurrent runs.
"""

from __future__ import annotations

from typing import List

from repro.analysis.rules.api_surface import ApiSurfaceRule
from repro.analysis.rules.base import Rule
from repro.analysis.rules.concurrency import ConcurrencyBoundaryRule
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.metrics import MetricsHygieneRule
from repro.analysis.rules.taxonomy import TaxonomyRule

__all__ = [
    "ApiSurfaceRule",
    "ConcurrencyBoundaryRule",
    "DeterminismRule",
    "MetricsHygieneRule",
    "Rule",
    "TaxonomyRule",
    "default_rules",
]


def default_rules() -> List[Rule]:
    """One fresh instance of every shipped rule, in rule-id order."""
    return [
        DeterminismRule(),
        TaxonomyRule(),
        MetricsHygieneRule(),
        ConcurrencyBoundaryRule(),
        ApiSurfaceRule(),
    ]
