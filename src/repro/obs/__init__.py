"""Observability: metrics, tracing and exposition for the runtime tiers.

The ingest tier (:mod:`repro.stream`) and the serving tier
(:mod:`repro.serve`) each used to expose health as a hand-rolled flat
dict.  This package gives them a shared, stdlib-only instrumentation
layer instead:

* :mod:`~repro.obs.registry` — :class:`MetricsRegistry` with three
  instrument kinds (:class:`Counter`, :class:`Gauge`, fixed-bucket
  :class:`Histogram` with p50/p95/p99 estimates), optional labels, and
  free-to-call no-op instruments when the registry is disabled,
* :mod:`~repro.obs.timer` — :class:`Tracer` and its ``span(name)``
  context manager / decorator: wall-time histograms that nest into a
  lightweight trace tree for one ingest run or query batch,
* :mod:`~repro.obs.export` — :func:`render_prometheus` (text
  exposition format), :func:`snapshot` (JSON-able state dump) and
  :class:`PeriodicReporter` (JSON-lines sampler driven by a record
  count or a wall clock).

``StreamRunner.stats()`` and ``QueryEngine.stats()`` are now *reads* of
the shared registry — the legacy dicts and the exposition formats can
never drift because they are the same numbers.  See
``docs/OBSERVABILITY.md`` for the operator's view.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.obs.export": ["PeriodicReporter", "render_prometheus", "snapshot"],
        "repro.obs.registry": [
            "DEFAULT_BUCKETS", "Counter", "Gauge", "Histogram", "MetricsRegistry",
        ],
        "repro.obs.timer": ["Span", "Tracer", "render_trace"],
    },
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PeriodicReporter",
    "Span",
    "Tracer",
    "render_prometheus",
    "render_trace",
    "snapshot",
]
