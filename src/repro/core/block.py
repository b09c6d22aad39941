"""The vectorized block-ingest kernel (scatter-min over packed batches).

The scalar ingest path walks one edge at a time: two fused hash
evaluations, two ``O(k)`` sketch updates, two degree increments — cheap
in theory, but every edge pays numpy's fixed per-call overhead a dozen
times, which is why E4 showed minhash ingest ~30x behind the exact
baseline while the *query* path (which batches) runs 12.5x ahead of its
own scalar loop.  This module closes that gap the same way EdgeSketch
and "Fast and Accurate Graph Stream Summarization" do: hash a whole
edge batch as one array pass, relabel endpoints to dense rows, and
apply segment-minimum updates to packed ``(n, k)`` value matrices.

The kernel is **bit-identical** to the scalar path.  The subtle part is
witness resolution, which must reproduce the scalar tie-breaking
exactly:

* a *strictly* smaller hash overwrites a slot (and its witness);
* an *equal* hash does not — the earliest arrival achieving the final
  minimum keeps the witness, and a minimum already held by the
  pre-batch sketch keeps the pre-batch witness;
* duplicate arrivals are idempotent on the slots but still bump
  ``update_count`` and degrees (exactly the scalar drift documented on
  :meth:`~repro.core.predictor.MinHashLinkPredictor.update`);
* self-loops and negative ids reject the **whole batch before any
  mutation** — a half-applied batch could never be replayed to the
  scalar result.

Implementation notes.  Per batch of ``m`` edges the kernel hashes only
the *unique* keys (hub-heavy streams repeat endpoints constantly), then
works on the deduplicated ``(target, key)`` pairs of the arrival
sequence: scalar ingest inserts key ``v`` into ``sketch(u)`` and key
``u`` into ``sketch(v)`` edge by edge, so the 2m-long arrival sequence
is the edge list with endpoints interleaved, and repeated insertions of
one key into one sketch are idempotent — only the *first* arrival of
each pair can matter.  The kernel proper (:func:`apply_arrivals`)
takes any arrival sequence: :func:`apply_edge_block` interleaves a
batch's full sequence, a shard worker applies the subsequence whose
targets it owns (:func:`edge_arrivals` with ``sides``), and because a
subsequence keeps each target's arrivals in stream order, the result is
the serial one restricted to those targets.  ``np.unique`` over the
packed ``(row, key)`` codes yields the pairs already grouped by target
(with each pair's earliest arrival position, the scalar witness
tie-break), ``np.minimum.reduceat`` produces the per-vertex batch
minima, and a second ``reduceat`` over masked arrival positions finds
the earliest arrival achieving each final minimum — the witness the
sequential loop would have kept.  (``reduceat`` over presorted
segments is several times faster than ``np.minimum.at``'s unbuffered
scatter on CPython, and needs no atomics.)

The pairs are reduced in slabs of whole segments, at most
:data:`SLAB_PAIRS` pairs each (a hub's segment longer than that is a
slab of its own).  A segment never straddles two slabs, so each slab's
minima and witnesses are final, and each slab goes straight into the
predictor's columnar store (:mod:`repro.core.predictor`): unseen
vertices get rows appended, and the slab's rows are gathered, merged
with a strict-``<`` scatter-min and written back in place.  So one
call holds the hashed unique keys (at most one ``k``-row per vertex),
one slab's matrices and per-edge index arrays, never a ``(pairs, k)``
or ``(vertices, k)`` matrix of the whole batch, and the slab's
matrices (512 KiB each at k=64) stay in cache.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.sketches.minhash import EMPTY_SLOT

__all__ = [
    "U_SIDE", "V_SIDE", "coerce_edge_batch", "coerce_timestamp_batch", "edge_arrivals",
    "apply_edge_block", "apply_arrivals", "apply_dynamic_block",
]

#: Largest hash a real key may occupy a slot with (EMPTY_SLOT is
#: reserved; the scalar path applies the identical remap).
_VALUE_CAP = EMPTY_SLOT - np.uint64(1)

#: Most ``(row, key)`` pairs one slab of :func:`apply_arrivals`
#: reduces at once: ``1024 · k`` hashes, 512 KiB at k=64, so a slab's
#: matrices stay in cache and no matrix spans the whole batch.
SLAB_PAIRS = 1024

#: The bits of a ``sides`` column (:func:`edge_arrivals`): which of an
#: edge ``(u, v)``'s two arrivals apply.
U_SIDE = 1  #: ``sketch(u) <- v``
V_SIDE = 2  #: ``sketch(v) <- u``


def coerce_edge_batch(us, vs) -> Tuple[np.ndarray, np.ndarray]:
    """Validate an edge batch into parallel int64 arrays.

    Enforces the scalar :meth:`update` contract on the whole batch —
    equal-length 1-d integer arrays, no negative ids, no self-loops —
    and raises :class:`~repro.errors.ConfigurationError` *before* the
    caller mutates anything, naming the first offending edge.
    """
    try:
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
    except (OverflowError, TypeError, ValueError) as error:
        raise ConfigurationError(f"edge batch is not int64-coercible: {error}") from None
    if us.ndim != 1 or vs.ndim != 1:
        raise ConfigurationError(
            f"edge batch must be 1-d arrays, got shapes {us.shape} and {vs.shape}"
        )
    if us.shape[0] != vs.shape[0]:
        raise ConfigurationError(
            f"edge batch endpoint arrays disagree: {us.shape[0]} vs {vs.shape[0]} edges"
        )
    negative = (us < 0) | (vs < 0)
    if negative.any():
        index = int(np.argmax(negative))
        raise ConfigurationError(
            "vertex ids must be non-negative, got "
            f"({int(us[index])}, {int(vs[index])}) at batch index {index}"
        )
    loops = us == vs
    if loops.any():
        index = int(np.argmax(loops))
        raise ConfigurationError(
            f"self-loop on vertex {int(us[index])} at batch index {index} is not allowed"
        )
    return us, vs


def coerce_timestamp_batch(timestamps, count: int) -> np.ndarray:
    """Validate a per-edge timestamp vector into a float64 array.

    ``None`` means "no stream time": a zero vector, matching the scalar
    default ``timestamp=0.0``.  Non-finite entries reject the whole
    batch before any mutation, naming the first offending index.
    """
    if timestamps is None:
        return np.zeros(count, dtype=np.float64)
    try:
        out = np.asarray(timestamps, dtype=np.float64)
    except (TypeError, ValueError) as error:
        raise ConfigurationError(
            f"timestamp batch is not float64-coercible: {error}"
        ) from None
    if out.ndim != 1 or out.shape[0] != count:
        raise ConfigurationError(
            f"timestamp batch must be a 1-d array of length {count}, "
            f"got shape {out.shape}"
        )
    bad = ~np.isfinite(out)
    if bad.any():
        index = int(np.argmax(bad))
        raise ConfigurationError(
            f"non-finite timestamp {out[index]} at batch index {index}"
        )
    return out


def edge_arrivals(us, vs, sides=None):
    """The arrival sequence of a validated edge batch: ``(targets,
    keys, edges)``, interleaved exactly as the scalar loop issues
    updates — ``sketch(u0) <- v0``, ``sketch(v0) <- u0``, ... — so
    position order is arrival order, which is what breaks witness ties
    identically to sequential ingestion.

    ``sides`` keeps only some arrivals of each edge: bit :data:`U_SIDE`
    keeps ``sketch(u) <- v``, bit :data:`V_SIDE` ``sketch(v) <- u`` (a
    shard worker applies just the arrivals whose target it owns).
    ``edges`` is then each kept arrival's edge index, and ``None`` for
    the full interleave.
    """
    m = len(us)
    targets = np.empty(2 * m, dtype=np.int64)
    keys = np.empty(2 * m, dtype=np.int64)
    targets[0::2] = us
    targets[1::2] = vs
    keys[0::2] = vs
    keys[1::2] = us
    if sides is None:
        return targets, keys, None
    sides = np.asarray(sides)
    if sides.shape != (m,):
        raise ConfigurationError(
            f"sides must hold one value per edge ({m} edges), got shape {sides.shape}"
        )
    bad = (sides < U_SIDE) | (sides > U_SIDE | V_SIDE)
    if bad.any():
        index = int(np.argmax(bad))
        raise ConfigurationError(
            f"sides value {int(sides[index])} at batch index {index} is not 1, 2 or 3"
        )
    kept = np.empty(2 * m, dtype=bool)
    kept[0::2] = sides & U_SIDE
    kept[1::2] = sides & V_SIDE
    arrivals = np.flatnonzero(kept)
    return targets[arrivals], keys[arrivals], arrivals >> 1


def apply_edge_block(predictor, us, vs, sides=None) -> int:
    """Fold a whole edge batch into ``predictor``; returns the edge count.

    Bit-identical to ``for u, v in zip(us, vs): predictor.update(u, v)``
    across sketch values, witnesses, update counts, and degrees — the
    property the hypothesis suite pins.  With ``sides`` only the chosen
    arrivals of each edge apply (:func:`edge_arrivals`), bit-identical
    to the scalar loop restricted to those arrivals.  Validation happens
    up front: a rejected batch leaves the predictor untouched.
    """
    us, vs = coerce_edge_batch(us, vs)
    if len(us):
        apply_arrivals(predictor, *edge_arrivals(us, vs, sides)[:2])
    return len(us)


def apply_arrivals(predictor, targets: np.ndarray, keys: np.ndarray) -> None:
    """Fold an arrival sequence (``sketch(targets[i]) <- keys[i]``, in
    order) into ``predictor``: the block kernel proper.  Degrees count
    each arrival at its target."""
    bank = predictor.bank
    track = predictor.config.track_witnesses

    # One _splitmix64_array pass over the unique keys of the batch.
    unique_keys, key_inverse = np.unique(keys, return_inverse=True)
    hashed = bank.values_block(unique_keys)
    np.minimum(hashed, _VALUE_CAP, out=hashed)

    unique_targets, rows = np.unique(targets, return_inverse=True)
    key_count = unique_keys.shape[0]

    # Deduplicate (target, key) pairs: repeated insertions of one key
    # into one sketch are idempotent, so only each pair's *earliest*
    # arrival can matter.  np.unique over the packed codes returns the
    # pairs sorted by (row, key) — already grouped by target — and
    # return_index gives each pair's first arrival position, which is
    # exactly the scalar witness tie-break.
    codes = rows * np.int64(key_count) + key_inverse
    unique_codes, first_arrival = np.unique(codes, return_index=True)
    pair_rows = unique_codes // key_count
    pair_keys = unique_codes % key_count

    # Segment i (the pairs of row i) spans pairs bounds[i]:bounds[i+1];
    # pair_rows is sorted and every unique target owns at least one pair.
    bounds = np.flatnonzero(np.r_[True, pair_rows[1:] != pair_rows[:-1], True])
    # Arrival counts per vertex: duplicates are idempotent on the slots
    # but still bump update_count, exactly like repeated scalar updates.
    arrivals = np.bincount(rows, minlength=len(unique_targets))
    for lo, hi in _slabs(bounds):
        start, stop = bounds[lo], bounds[hi]
        # Unseen vertices take their slab minima as they are; seen ones
        # keep a pre-batch slot and witness unless the slab minimum is
        # strictly smaller — the scalar `hashes < values` rule.  (The
        # minima are call arguments only, so they die with the merge.)
        predictor._merge_rows(
            unique_targets[lo:hi],
            *_segment_minima(
                hashed[pair_keys[start:stop]],
                bounds[lo : hi + 1] - start,
                first_arrival[start:stop] if track else None,
                keys,
            ),
            arrivals[lo:hi],
        )
    predictor._degrees.increment_block(targets)


def _slabs(bounds: np.ndarray):
    """Row ranges ``[lo, hi)`` of whole segments covering at most
    :data:`SLAB_PAIRS` pairs each; a longer segment is a slab alone."""
    rows = len(bounds) - 1
    lo = 0
    while lo < rows:
        hi = int(np.searchsorted(bounds, bounds[lo] + SLAB_PAIRS, side="right")) - 1
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


def _segment_minima(hashes: np.ndarray, bounds: np.ndarray, positions, keys: np.ndarray):
    """Per-segment slot minima of ``hashes`` (one ``(pairs, k)`` slab,
    segment i spanning rows ``bounds[i]:bounds[i+1]``), and with
    ``positions`` (each pair's first arrival) the key of the earliest
    arrival achieving each minimum — the witness the scalar loop keeps.
    ``hashes`` is scratch: the witness search overwrites it."""
    starts = bounds[:-1]
    minima = np.minimum.reduceat(hashes, starts, axis=0)
    if positions is None:
        return minima, None
    # Mask non-achieving pairs to a position past every arrival, take
    # the segment minimum of the positions and read the key back out.
    # (Every (row, slot) minimum is achieved by some pair of its
    # segment, so the sentinel never survives.)
    achieved = hashes == np.repeat(minima, np.diff(bounds), axis=0)
    masked = hashes.view(np.int64)
    masked.fill(len(keys))
    np.copyto(masked, positions[:, np.newaxis], where=achieved)
    return minima, keys[np.minimum.reduceat(masked, starts, axis=0)]


def apply_dynamic_block(predictor, us, vs, timestamps=None, op: str = "add", sides=None) -> int:
    """Fold a homogeneous-op edge batch into a dynamic predictor.

    The deletion-tolerant counterpart of :func:`apply_edge_block`: the
    per-key state is a signed counter plus a last-seen time, so a batch
    reduces to one ``(count delta, max timestamp)`` pair per unique
    ``(target, key)`` arrival — ``np.unique`` groups the arrival
    sequence (:func:`edge_arrivals`, ``sides`` choosing arrivals as
    there), ``np.bincount`` sums the deltas, and
    ``np.maximum.reduceat`` takes the per-pair timestamp maxima.  Counter
    addition commutes, so unlike the append-only kernel there is no
    witness tie-break to reproduce: the result equals the scalar loop
    for *any* arrival order.  ``op`` selects the delete path (``delta =
    -1`` per arrival); mixed-op batches must be split by the caller
    (the stream runner flushes pending spans on op changes).

    Validation happens up front — bad ids, self-loops, or non-finite
    timestamps reject the whole batch before any mutation.  Returns the
    number of edges applied.
    """
    if op not in ("add", "delete"):
        raise ConfigurationError(f"op must be 'add' or 'delete', got {op!r}")
    us, vs = coerce_edge_batch(us, vs)
    m = us.shape[0]
    ts = coerce_timestamp_batch(timestamps, m)
    if m == 0:
        return 0
    delta_sign = 1 if op == "add" else -1

    # Each arrival carries its edge's timestamp.
    targets, keys, edges = edge_arrivals(us, vs, sides)
    times = np.repeat(ts, 2) if edges is None else ts[edges]

    unique_targets, rows = np.unique(targets, return_inverse=True)
    unique_keys, key_inverse = np.unique(keys, return_inverse=True)
    key_count = unique_keys.shape[0]

    # Group arrivals by (target, key); counts sum and timestamps max
    # within each group, giving one apply_delta call per unique pair.
    codes = rows * np.int64(key_count) + key_inverse
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    sorted_times = times[order]
    starts = np.flatnonzero(np.r_[True, sorted_codes[1:] != sorted_codes[:-1]])
    group_codes = sorted_codes[starts]
    group_ops = np.diff(np.r_[starts, sorted_codes.shape[0]])
    group_times = np.maximum.reduceat(sorted_times, starts)
    group_targets = unique_targets[group_codes // key_count].tolist()
    group_keys = unique_keys[group_codes % key_count].tolist()

    sketch_of = predictor._sketch_of
    sketch = None
    last_target = None
    for target, key, ops, stamp in zip(
        group_targets, group_keys, group_ops.tolist(), group_times.tolist()
    ):
        if target != last_target:
            sketch = sketch_of(target)
            last_target = target
        sketch.apply_delta(key, delta_sign * ops, stamp, ops=ops)
    predictor._observe_time(float(ts.max()))
    return m
