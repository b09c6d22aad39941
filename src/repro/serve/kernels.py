"""The vectorized scoring kernel.

One function, :func:`score_pairs_packed`, evaluates any registered
:class:`~repro.exact.measures.Measure` for a whole batch of vertex
pairs against a :class:`~repro.serve.packed.PackedSketches` snapshot —
the batch twin of the per-pair estimator
:func:`~repro.core.estimators.score_rows`, kept in lockstep with it by
the parity tests.  The two stay separate on purpose: a one-pair call
through this array code costs 3–5x the scalar path, so ``score`` runs
one pair and ``score_many`` a batch.

* slot collisions are one broadcast equality over ``(m, k)`` slices of
  the packed ``values`` matrix (a slot matches iff both minima are
  equal and non-empty; equality to a non-empty value implies the other
  side is non-empty too, so a single emptiness test suffices),
* the estimator algebra of :mod:`repro.core.estimators` is re-expressed
  as array arithmetic, term-for-term in the same operation order so the
  scalar and batch paths agree to the last float,
* witness weights are resolved per query, for the matched slots of the
  chunk only (witness id → degree by one
  :meth:`~repro.serve.packed.PackedSketches.degrees_of`, then the
  measure's weight), so the store keeps no per-measure cache and a
  call's scratch is bounded by the chunk, never by the store.

Policy parity (pinned by the regression suite): unseen vertices score
0.0 for **every** measure, zero-degree endpoints score 0.0 for
everything but ``preferential_attachment``, self-pairs behave as pairs
of identical neighborhoods.

Measures whose ratio/weight callables are not in the built-in registry
fall back to :func:`numpy.vectorize` over the scalar callable — slower,
still correct, so a user-registered measure never silently misscores.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.errors import SketchStateError
from repro.exact.measures import Measure
from repro.serve.packed import PackedSketches
from repro.sketches.minhash import EMPTY_SLOT

__all__ = ["score_pairs_packed", "collision_counts"]

_F64 = np.float64


def collision_counts(values_u: np.ndarray, values_v: np.ndarray) -> np.ndarray:
    """Per-pair count of matching non-empty slots, ``int64 (m,)``.

    ``values_u``/``values_v`` are aligned ``(m, k)`` slices of a packed
    ``values`` matrix.
    """
    return _match_matrix(values_u, values_v).sum(axis=1)


def _match_matrix(values_u: np.ndarray, values_v: np.ndarray) -> np.ndarray:
    return (values_u == values_v) & (values_u != EMPTY_SLOT)


# ----------------------------------------------------------------------
# Vectorized forms of the registry's ratio / weight callables.  Each
# mirrors its scalar twin in repro.exact.measures term-for-term.
# ----------------------------------------------------------------------


def _jaccard_ratio(inter: np.ndarray, du: np.ndarray, dv: np.ndarray) -> np.ndarray:
    union = du + dv - inter
    return _safe_divide(inter, union)


def _cosine_ratio(inter: np.ndarray, du: np.ndarray, dv: np.ndarray) -> np.ndarray:
    return _safe_divide(inter, np.sqrt(du * dv))


def _sorensen_ratio(inter: np.ndarray, du: np.ndarray, dv: np.ndarray) -> np.ndarray:
    return _safe_divide(2.0 * inter, du + dv)


def _hub_promoted_ratio(inter: np.ndarray, du: np.ndarray, dv: np.ndarray) -> np.ndarray:
    return _safe_divide(inter, np.minimum(du, dv))


def _hub_depressed_ratio(inter: np.ndarray, du: np.ndarray, dv: np.ndarray) -> np.ndarray:
    return _safe_divide(inter, np.maximum(du, dv))


def _lhn_ratio(inter: np.ndarray, du: np.ndarray, dv: np.ndarray) -> np.ndarray:
    return _safe_divide(inter, du * dv)


def _safe_divide(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    out = np.zeros(np.broadcast(numerator, denominator).shape, dtype=_F64)
    np.divide(numerator, denominator, out=out, where=denominator > 0)
    return out


_VECTOR_RATIOS: Dict[str, Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = {
    "jaccard": _jaccard_ratio,
    "cosine": _cosine_ratio,
    "sorensen": _sorensen_ratio,
    "hub_promoted": _hub_promoted_ratio,
    "hub_depressed": _hub_depressed_ratio,
    "leicht_holme_newman": _lhn_ratio,
}


def _adamic_adar_weights(degrees: np.ndarray) -> np.ndarray:
    return 1.0 / np.log(np.maximum(degrees, 2).astype(_F64))


def _resource_allocation_weights(degrees: np.ndarray) -> np.ndarray:
    return 1.0 / np.maximum(degrees, 1).astype(_F64)


_VECTOR_WEIGHTS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "adamic_adar": _adamic_adar_weights,
    "resource_allocation": _resource_allocation_weights,
}


def _ratio_of(measure: Measure) -> Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    known = _VECTOR_RATIOS.get(measure.name)
    if known is not None:
        return known
    return np.vectorize(measure.ratio, otypes=[_F64])


def _weights_of(measure: Measure) -> Callable[[np.ndarray], np.ndarray]:
    known = _VECTOR_WEIGHTS.get(measure.name)
    if known is not None:
        return known
    return np.vectorize(measure.witness_weight, otypes=[_F64])


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------


def score_pairs_packed(
    store: PackedSketches,
    us: np.ndarray,
    vs: np.ndarray,
    measure: Measure,
) -> np.ndarray:
    """Score ``measure`` for every pair ``(us[i], vs[i])``; ``f64 (m,)``.

    Matches the per-pair scalar path measure-for-measure (see module
    docstring for the policy guarantees).  Witness-sum measures other
    than ``common_neighbors`` need a witness-tracking store and raise
    :class:`~repro.errors.SketchStateError` without one, exactly like
    the scalar path.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    if us.shape != vs.shape:
        raise SketchStateError(
            f"pair arrays disagree in shape: {us.shape} vs {vs.shape}"
        )
    scores = np.zeros(len(us), dtype=_F64)
    if len(us) == 0 or store.n_vertices == 0:
        return scores
    rows_u = store.rows_of(us)
    rows_v = store.rows_of(vs)
    seen = np.flatnonzero((rows_u >= 0) & (rows_v >= 0))
    if len(seen) == 0:
        return scores
    ru = rows_u[seen]
    rv = rows_v[seen]
    du = store.degrees[ru].astype(_F64)
    dv = store.degrees[rv].astype(_F64)
    if measure.kind == "degree_product":
        scores[seen] = du * dv
        return scores
    live = np.flatnonzero((du > 0) & (dv > 0))
    if len(live) == 0:
        return scores
    idx = seen[live]
    ru, rv, du, dv = ru[live], rv[live], du[live], dv[live]
    # One gather for both sides: a chunk's scratch then stays under twice
    # its largest block, past which glibc hands freed heap back to the OS
    # and the next chunk page-faults it in again.
    rows = store.values[np.concatenate([ru, rv])]
    matches = _match_matrix(rows[: len(ru)], rows[len(ru) :])
    del rows
    counts = matches.sum(axis=1)
    j = counts / _F64(store.k)
    if measure.name == "jaccard":
        scores[idx] = j
        return scores
    if measure.kind == "overlap_ratio" or measure.name == "common_neighbors":
        intersection = _intersection_estimate(j, du, dv)
        if measure.name == "common_neighbors":
            scores[idx] = intersection
        else:
            scores[idx] = _ratio_of(measure)(intersection, du, dv)
        return scores
    # General witness sums (Adamic–Adar, resource allocation, ...).
    if store.witnesses is None:
        raise SketchStateError(
            f"measure {measure.name!r} needs witness tracking; "
            "construct with SketchConfig(track_witnesses=True)"
        )
    union = (du + dv) / (1.0 + j)
    sums = _witness_sums(store, ru, matches, counts, measure)
    raw = np.maximum(0.0, union * sums / _F64(store.k))
    ceiling = np.minimum(du, dv) * measure.witness_weight(2)  # type: ignore[misc]
    scores[idx] = np.minimum(raw, ceiling)
    return scores


def _witness_sums(
    store: PackedSketches,
    rows_u: np.ndarray,
    matches: np.ndarray,
    counts: np.ndarray,
    measure: Measure,
) -> np.ndarray:
    """Per pair, the sum of the measure's weights over matched slots.

    Only matched slots resolve a witness degree.  Their weights land in
    a dense block with one row per pair that has a match, zeros
    elsewhere, so each ``sum(axis=1)`` adds the very row that
    ``np.where(matches, weights[rows_u], 0.0)`` would hold and the
    result is bit-identical to summing a full weight matrix.
    """
    pairs, slots = np.divmod(np.flatnonzero(matches), matches.shape[1])
    weights = _weights_of(measure)(store.degrees_of(store.witnesses[rows_u[pairs], slots]))
    hit = np.flatnonzero(counts)
    block = np.zeros((len(hit), matches.shape[1]), dtype=_F64)
    block[np.repeat(np.arange(len(hit)), counts[hit]), slots] = weights
    sums = np.zeros(len(counts), dtype=_F64)
    sums[hit] = block.sum(axis=1)
    return sums


def _intersection_estimate(j: np.ndarray, du: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Vector twin of
    :func:`repro.core.estimators.common_neighbors_from_jaccard`:
    ``J·(du+dv)/(1+J)``, clamped into ``[0, min(du, dv)]``."""
    raw = np.where(j > 0, j * (du + dv) / (1.0 + j), 0.0)
    ceiling = np.minimum(du, dv)
    return np.where(ceiling > 0, np.clip(raw, 0.0, ceiling), 0.0)
