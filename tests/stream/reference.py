"""The reference the runner tests compare against: one record at a time.

Each record is judged alone (:meth:`~repro.stream.admission.Admission.admit`)
and every accepted one is applied with the scalar ``update``/``delete``.
The runners fold whole chunks through ``update_block``/``delete_block``
instead; their state must equal this loop's bit for bit.
"""

from __future__ import annotations

from repro.core import DynamicMinHashPredictor
from repro.errors import DeadLetterError
from repro.obs.registry import MetricsRegistry
from repro.stream.admission import Admission
from repro.stream.sources import IteratorEdgeSource


def accepted_records(lines, *, dynamic=False, **options):
    """``([(offset, record)], error)``: the records a fresh admission
    accepts, judged one by one, and the strict rejection that stopped
    it (``None`` if none did).  ``options`` go to :class:`Admission`."""
    registry = MetricsRegistry()
    counter = registry.counter("ingest_records_total", "reference", labelnames=("outcome",))
    admission = Admission(IteratorEdgeSource(lines), registry, counter, dynamic=dynamic, **options)
    accepted = []
    try:
        for record in admission.source.records():
            typed = admission.admit(record)
            if typed is not None:
                accepted.append((record.offset, typed))
    except DeadLetterError as error:
        return accepted, error
    return accepted, None


def apply_record(predictor, typed) -> None:
    """One accepted record through the scalar ``update``/``delete``."""
    if isinstance(predictor, DynamicMinHashPredictor):
        apply = predictor.delete if typed.op == "delete" else predictor.update
        apply(typed.u, typed.v, typed.timestamp)
    else:
        predictor.update(typed.u, typed.v)


def fold_accepted(lines, predictor, **options):
    """``predictor`` after the per-record loop over every record of
    ``lines`` that admission accepts (up to a strict rejection)."""
    dynamic = isinstance(predictor, DynamicMinHashPredictor)
    accepted, _ = accepted_records(lines, dynamic=dynamic, **options)
    for _, typed in accepted:
        apply_record(predictor, typed)
    return predictor
