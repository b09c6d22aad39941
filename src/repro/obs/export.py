"""Exposition: Prometheus text format, JSON snapshots, periodic samples.

Three consumers, three formats, one source of truth (the registry):

* :func:`render_prometheus` — the `text exposition format
  <https://prometheus.io/docs/instrumenting/exposition_formats/>`_ a
  scraper ingests: one ``# HELP``/``# TYPE`` pair per instrument,
  escaped label values, histograms as cumulative ``_bucket{le=...}``
  series plus ``_sum``/``_count``.
* :func:`snapshot` — a JSON-able dict of every series, with estimated
  p50/p95/p99 attached to histograms (the human-facing numbers a
  Prometheus backend would derive itself).  ``repro-linkpred monitor``
  renders exactly this structure.
* :class:`PeriodicReporter` — appends one :func:`snapshot` JSON line
  to a file every *N* consumed records and/or *T* seconds; the
  cheapest possible flight recorder for an unattended consumer, and
  the file ``monitor`` tails.

Everything here *reads* registry state — rendering never perturbs the
numbers, so a scrape during ingest is safe.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import IO, Callable, Dict, List, Optional, Union

from repro.errors import ConfigurationError
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry

__all__ = ["PeriodicReporter", "render_prometheus", "snapshot"]

SNAPSHOT_SCHEMA = "repro.obs/v1"

PathLike = Union[str, Path]

#: Histogram quantiles included in JSON snapshots.
QUANTILES = (0.5, 0.95, 0.99)


# ----------------------------------------------------------------------
# Prometheus text format
# ----------------------------------------------------------------------


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in labels.items())
    return "{" + body + "}"


def _format_number(value: Union[int, float]) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if math.isnan(value):
            return "NaN"
        return repr(value)
    return str(value)


def _format_le(bound: float) -> str:
    if math.isinf(bound):
        return "+Inf"
    # Prometheus prints integral bounds without the trailing ".0".
    if bound == int(bound):
        return str(int(bound))
    return _format_number(bound)


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry as Prometheus text exposition format (version 0.0.4).

    Stable output: instruments in registration order, series in
    creation order, exactly one ``# TYPE`` line per instrument.  A
    disabled registry renders to the empty string.
    """
    lines: List[str] = []
    for instrument in registry.instruments():
        if instrument.help:
            lines.append(f"# HELP {instrument.name} {_escape_help(instrument.help)}")
        lines.append(f"# TYPE {instrument.name} {instrument.kind}")
        for labels, series in instrument.series():
            label_text = _format_labels(labels)
            if isinstance(instrument, Histogram):
                cumulative = series.cumulative_counts()  # type: ignore[attr-defined]
                bounds = list(series.buckets) + [math.inf]  # type: ignore[attr-defined]
                for bound, count in zip(bounds, cumulative):
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = _format_le(bound)
                    lines.append(
                        f"{instrument.name}_bucket{_format_labels(bucket_labels)} {count}"
                    )
                lines.append(
                    f"{instrument.name}_sum{label_text} {_format_number(series.sum)}"
                )
                lines.append(f"{instrument.name}_count{label_text} {series.count}")
            else:
                lines.append(
                    f"{instrument.name}{label_text} {_format_number(series.value)}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# JSON snapshot
# ----------------------------------------------------------------------


def snapshot(
    registry: MetricsRegistry, *, timestamp: Optional[float] = None
) -> Dict[str, object]:
    """Every series as one JSON-able dict (the ``monitor`` contract).

    ``{"schema": "repro.obs/v1", "ts": <unix seconds>, "instruments":
    [...]}``, one instrument entry per registered name with its type,
    help and series list.  Histogram series carry exact
    count/sum/buckets plus estimated p50/p95/p99.
    """
    instruments: List[Dict[str, object]] = []
    for instrument in registry.instruments():
        series_out: List[Dict[str, object]] = []
        for labels, series in instrument.series():
            entry: Dict[str, object] = {"labels": labels}
            if isinstance(instrument, Histogram):
                bounds = list(series.buckets) + [math.inf]  # type: ignore[attr-defined]
                cumulative = series.cumulative_counts()  # type: ignore[attr-defined]
                entry["count"] = series.count
                entry["sum"] = series.sum
                entry["buckets"] = [
                    [_format_le(bound), count] for bound, count in zip(bounds, cumulative)
                ]
                for q in QUANTILES:
                    entry[f"p{int(q * 100)}"] = series.quantile(q)  # type: ignore[attr-defined]
            else:
                value = series.value
                # JSON has no Infinity/NaN; stringify the exotic floats.
                if isinstance(value, float) and not math.isfinite(value):
                    value = _format_number(value)
                entry["value"] = value
            series_out.append(entry)
        instruments.append(
            {
                "name": instrument.name,
                "type": instrument.kind,
                "help": instrument.help,
                "series": series_out,
            }
        )
    return {
        "schema": SNAPSHOT_SCHEMA,
        "ts": time.time() if timestamp is None else timestamp,
        "instruments": instruments,
    }


# ----------------------------------------------------------------------
# Periodic JSON-lines sampling
# ----------------------------------------------------------------------


class PeriodicReporter:
    """Append registry snapshots to a JSON-lines file on a cadence.

    Drive it with :meth:`tick` from the consuming loop (the runner
    calls it once per chunk of consumed records, a chunk never crossing
    :meth:`records_until_due`); a sample is written when *either*
    cadence is due.  ``every_records=0`` / ``every_seconds=0``
    disables that trigger; with both disabled only explicit
    :meth:`write` calls (and the final one from :meth:`close`) emit.

    The file handle is line-buffered per write and append-mode, so a
    crash loses at most the in-flight line and a restarted consumer
    extends the same flight record.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        path: PathLike,
        *,
        every_records: int = 0,
        every_seconds: float = 0.0,
        clock: Callable[[], float] = time.monotonic,
        timefunc: Callable[[], float] = time.time,
    ) -> None:
        if every_records < 0:
            raise ConfigurationError(f"every_records must be >= 0, got {every_records}")
        if every_seconds < 0:
            raise ConfigurationError(f"every_seconds must be >= 0, got {every_seconds}")
        self.registry = registry
        self.path = Path(path)
        self.every_records = every_records
        self.every_seconds = every_seconds
        self.clock = clock
        self.timefunc = timefunc
        self.samples_written = 0
        self._records_since = 0
        self._last_write = clock()
        self._handle: Optional[IO[str]] = open(self.path, "a", encoding="utf-8")

    def records_until_due(self) -> Optional[int]:
        """Records until the record cadence is due (``None`` without one)."""
        if not self.every_records:
            return None
        return max(1, self.every_records - self._records_since)

    def tick(self, records: int = 1) -> bool:
        """Account ``records`` consumed; write a sample if due."""
        self._records_since += records
        due = bool(self.every_records) and self._records_since >= self.every_records
        if not due and self.every_seconds:
            due = (self.clock() - self._last_write) >= self.every_seconds
        if due:
            self.write()
        return due

    def write(self) -> None:
        """Write one snapshot line now, unconditionally."""
        if self._handle is None:
            raise ConfigurationError(f"reporter for {self.path} is closed")
        json.dump(
            snapshot(self.registry, timestamp=self.timefunc()),
            self._handle,
            separators=(",", ":"),
        )
        self._handle.write("\n")
        self._handle.flush()
        self.samples_written += 1
        self._records_since = 0
        self._last_write = self.clock()

    def close(self, *, final_sample: bool = True) -> None:
        """Flush (optionally writing a final sample) and close the file."""
        if self._handle is None:
            return
        if final_sample:
            self.write()
        self._handle.close()
        self._handle = None

    def __enter__(self) -> "PeriodicReporter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"PeriodicReporter({str(self.path)!r}, every_records={self.every_records}, "
            f"every_seconds={self.every_seconds}, samples={self.samples_written})"
        )
