"""Estimator algebra: from sketch observables to measure estimates.

The predictors observe three quantities per query pair ``(u, v)``:

* ``Ĵ`` — the MinHash collision fraction (slots whose minima agree),
* ``d(u), d(v)`` — the maintained degrees,
* the *witnesses* of the colliding slots — the keys achieving the
  shared minima.

Everything the paper estimates is a deterministic function of these,
collected here as pure functions so the math is testable in isolation
from the streaming machinery.

Derivations
-----------

**Jaccard.**  Each slot's collision indicator is Bernoulli(J)
(independent across slots), so ``Ĵ = matches/k`` is unbiased with
variance ``J(1-J)/k`` and Hoeffding tail ``2·exp(-2kε²)``.

**Union and common neighbors.**  Degrees give
``|N(u) ∪ N(v)| = d(u) + d(v) - CN`` and the definition gives
``CN = J·|∪|``; solving the two equations::

    CN = J (d(u)+d(v)) / (1+J)        |∪| = (d(u)+d(v)) / (1+J)

With exact degrees, plugging ``Ĵ`` for ``J`` yields the plug-in
estimators below (a smooth function of an unbiased estimator —
asymptotically unbiased with bias O(1/k), which E3 confirms decays).

**Witness sums (Adamic–Adar & friends).**  Condition on slot ``i``
colliding: the shared witness ``w_i`` is then a uniform sample of
``N(u) ∩ N(v)``.  Unconditionally, for any weight ``f``::

    E[ f(w_i) · 1{collision_i} ] = Σ_{w∈∩} f(w) / |∪|

so ``|∪̂| · (1/k) Σ_{colliding i} f(d(w_i))`` estimates
``Σ_{w∈∩} f(d(w))`` — Adamic–Adar with ``f = 1/ln d``, resource
allocation with ``f = 1/d``, and plain CN with ``f = 1`` (in which case
the expression algebraically reduces to the closed form above).

**Clamping.**  Estimates are clamped into their feasible ranges
(``CN ≤ min(d(u), d(v))``, ``J ≤ 1``, sums ≥ 0).  Clamping can only
move an estimate closer to a truth that respects the same constraint,
so it never hurts and the accuracy experiments use the clamped values.

:func:`score_rows` composes these into one pair's score from its two
k-slot rows.  Every sketch predictor's per-pair query ends there (the
append-only, windowed, dynamic and directed ones); the batch kernel
:func:`repro.serve.kernels.score_pairs_packed` is its array twin.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional

import numpy as np

from repro.errors import ConfigurationError, SketchStateError
from repro.sketches.minhash import EMPTY_SLOT

if TYPE_CHECKING:
    from repro.exact.measures import Measure

__all__ = [
    "score_rows",
    "rows_jaccard",
    "union_size_from_jaccard",
    "common_neighbors_from_jaccard",
    "witness_sum_from_matches",
    "clamp_intersection",
    "jaccard_std_error",
]


def union_size_from_jaccard(jaccard: float, degree_u: int, degree_v: int) -> float:
    """Plug-in estimate of ``|N(u) ∪ N(v)| = (d(u)+d(v)) / (1+J)``.

    Edge cases are explicit so empty-overlap pairs can never divide by
    zero or return ``inf``: at ``jaccard == 0`` the union is exactly
    ``d(u) + d(v)`` (disjoint neighborhoods), and two zero-degree
    endpoints have an empty union.  The result is always finite and
    non-negative — the witness-sum estimators multiply by it, so an
    ``inf`` here would poison every downstream measure.
    """
    _check_jaccard(jaccard)
    total = degree_u + degree_v
    if total <= 0:
        return 0.0
    if jaccard == 0.0:
        return float(total)
    return total / (1.0 + jaccard)


def common_neighbors_from_jaccard(jaccard: float, degree_u: int, degree_v: int) -> float:
    """Plug-in estimate ``CN = J (d(u)+d(v)) / (1+J)``, clamped feasible."""
    _check_jaccard(jaccard)
    raw = jaccard * (degree_u + degree_v) / (1.0 + jaccard) if jaccard > 0 else 0.0
    return clamp_intersection(raw, degree_u, degree_v)


def witness_sum_from_matches(
    union_size: float,
    witness_degrees: Iterable[int],
    weight: Callable[[int], float],
    k: int,
) -> float:
    """Horvitz–Thompson estimate of ``Σ_{w∈∩} weight(d(w))``.

    Parameters
    ----------
    union_size:
        Estimated ``|N(u) ∪ N(v)|`` (from
        :func:`union_size_from_jaccard`).
    witness_degrees:
        Degrees of the witnesses of the *colliding* slots only.
    weight:
        The measure's witness weight (of a degree).
    k:
        Total number of slots (colliding or not) — the estimator
        averages over all ``k``, with non-colliding slots contributing
        zero.
    """
    if k < 1:
        raise ConfigurationError(f"k must be positive, got {k}")
    weighted = sum(weight(d) for d in witness_degrees)
    return max(0.0, union_size * weighted / k)


def clamp_intersection(value: float, degree_u: int, degree_v: int) -> float:
    """Clamp an intersection-size estimate into ``[0, min(du, dv)]``.

    ``du``/``dv`` are the degrees *as reported by the caller's tracker*.
    Under :class:`~repro.core.degrees.CountMinDegrees` an over-estimated
    degree raises the clamp ceiling above the true degree — the clamp
    still guarantees the estimate is feasible with respect to the
    degrees the estimator actually used (``[0, min(du, dv)]``), which is
    the invariant the property suite pins; it cannot recover exactness
    the tracker already gave up.  Non-positive reported degrees clamp
    everything to 0.0.
    """
    ceiling = float(min(degree_u, degree_v))
    if ceiling <= 0.0:
        return 0.0
    return max(0.0, min(ceiling, value))


def jaccard_std_error(jaccard: float, k: int) -> float:
    """Standard error of the collision estimator, ``sqrt(J(1-J)/k)``.

    Evaluated at the estimate itself (the usual plug-in practice); the
    value is what the CLI reports as the ±1σ band on Ĵ.
    """
    _check_jaccard(jaccard)
    if k < 1:
        raise ConfigurationError(f"k must be positive, got {k}")
    return (jaccard * (1.0 - jaccard) / k) ** 0.5


def rows_jaccard(values_u: np.ndarray, values_v: np.ndarray, k: int) -> float:
    """``Ĵ``: the fraction of the ``k`` slots where two rows hold the
    same non-empty minimum (an empty slot carries no sample)."""
    return float(np.count_nonzero(_slot_matches(values_u, values_v))) / k


def score_rows(
    measure: "Measure",
    values_u: np.ndarray,
    values_v: np.ndarray,
    witnesses_u: Optional[np.ndarray],
    du: int,
    dv: int,
    degree_of: Callable[[int], int],
    k: int,
) -> float:
    """One pair's estimate of ``measure`` from its two k-slot rows.

    ``values_u``/``values_v`` are the endpoints' slot minima,
    ``witnesses_u`` u's slot witnesses (``None`` without witness
    tracking), ``du``/``dv`` their degrees and ``degree_of`` the degree
    of any witness.  The caller has already applied the unseen-vertex
    policy.  Zero-degree endpoints score 0.0 for everything but the
    degree product, and witness sums other than common neighbors raise
    :class:`~repro.errors.SketchStateError` without witnesses.
    """
    if measure.kind == "degree_product":
        return float(du * dv)
    if du == 0 or dv == 0:
        return 0.0
    matches = _slot_matches(values_u, values_v)
    j = float(np.count_nonzero(matches)) / k
    if measure.name == "jaccard":
        return j  # the direct, unbiased estimate — no degree plug-in
    if measure.kind == "overlap_ratio":
        intersection = common_neighbors_from_jaccard(j, du, dv)
        return measure.ratio(intersection, du, dv)  # type: ignore[misc]
    # Witness sums.  Common neighbors has the closed form; general
    # weights go through the Horvitz–Thompson path over witnesses.
    if measure.name == "common_neighbors":
        return common_neighbors_from_jaccard(j, du, dv)
    if witnesses_u is None:
        raise SketchStateError(
            f"measure {measure.name!r} needs witness tracking; "
            "construct with SketchConfig(track_witnesses=True)"
        )
    union = union_size_from_jaccard(j, du, dv)
    witness_degrees = map(degree_of, witnesses_u[matches].tolist())
    raw = witness_sum_from_matches(union, witness_degrees, measure.witness_weight, k)
    # A witness-sum cannot exceed min(du, dv) times the largest
    # possible per-witness weight; common weights peak at degree 2.
    ceiling = min(du, dv) * measure.witness_weight(2)  # type: ignore[misc]
    return min(raw, ceiling)


def _slot_matches(values_u: np.ndarray, values_v: np.ndarray) -> np.ndarray:
    # Equal to a non-empty minimum implies the other side is non-empty.
    return (values_u != EMPTY_SLOT) & (values_u == values_v)


def _check_jaccard(jaccard: float) -> None:
    if not 0.0 <= jaccard <= 1.0:
        raise ConfigurationError(f"jaccard must be in [0, 1], got {jaccard}")
