"""Differential tests for the per-pair estimator of every sketch predictor.

Each predictor scores one pair through
:func:`repro.core.estimators.score_rows`.  The reference here is a
test-local copy of the algebra as the directed predictor wrote it out
before that function existed: two :class:`KMinHash` rows, the two
degrees and a witness-degree function.  Its inputs are rebuilt from the
stream itself (the window's edges, the live neighbor sets, the arcs of
one direction), so the predictors' own bookkeeping is checked too.
Scores must equal the reference exactly (``==``), for all ten measures.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DirectedMinHashPredictor,
    DynamicMinHashPredictor,
    MinHashLinkPredictor,
    SketchConfig,
    WindowedMinHashPredictor,
)
from repro.core.estimators import (
    clamp_intersection,
    common_neighbors_from_jaccard,
    jaccard_std_error,
    union_size_from_jaccard,
    witness_sum_from_matches,
)
from repro.core.predictor import PairEstimate
from repro.errors import SketchStateError
from repro.exact.measures import MEASURES, measure_by_name
from repro.sketches.minhash import KMinHash

ALL_MEASURES = sorted(MEASURES)
WITNESS_MEASURES = ("adamic_adar", "resource_allocation")
VERTICES = 9  # ids 0..8 appear in streams; 9 and 10 never do

edges_st = st.lists(
    st.tuples(st.integers(0, VERTICES - 1), st.integers(0, VERTICES - 1)).filter(
        lambda e: e[0] != e[1]
    ),
    max_size=50,
)
pairs_st = st.lists(st.tuples(st.integers(0, VERTICES + 1), st.integers(0, VERTICES + 1)),
                    min_size=1, max_size=12)
config_st = st.builds(
    SketchConfig, k=st.sampled_from([16, 64]), seed=st.integers(0, 2**16)
)


def reference_score(measure, su, sv, du, dv, degree_of, k):
    """The per-pair algebra over two rows (``None`` for an unseen one)."""
    if measure.kind == "degree_product":
        return float(du * dv)
    if su is None or sv is None or du == 0 or dv == 0:
        return 0.0
    j = su.jaccard(sv)
    if measure.name == "jaccard":
        return j
    if measure.kind == "overlap_ratio":
        return measure.ratio(common_neighbors_from_jaccard(j, du, dv), du, dv)
    if measure.name == "common_neighbors":
        return common_neighbors_from_jaccard(j, du, dv)
    union = union_size_from_jaccard(j, du, dv)
    witness_degrees = (degree_of(int(w)) for w in su.matching_witnesses(sv))
    raw = witness_sum_from_matches(union, witness_degrees, measure.witness_weight, k)
    return min(raw, min(du, dv) * measure.witness_weight(2))


def reference_estimate(u, v, su, sv, du, dv, degree_of, k):
    j = su.jaccard(sv) if su is not None and sv is not None else 0.0
    aa, ra = (
        reference_score(measure_by_name(name), su, sv, du, dv, degree_of, k)
        for name in WITNESS_MEASURES
    )
    cn = clamp_intersection(common_neighbors_from_jaccard(j, du, dv), du, dv)
    return PairEstimate(u, v, j, cn, aa, ra, du, dv, jaccard_std_error(j, k))


def sketch_of(bank, keys):
    """A k-mins row over ``keys``, inserted in ascending order so a hash
    tie keeps the smallest key as witness (as materialization does)."""
    sketch = KMinHash(bank)
    for key in sorted(keys):
        sketch.update(key)
    return sketch


def undirected_rows(bank, edges):
    """Each vertex's row over its neighbor set, and its arrival count."""
    neighbors = defaultdict(set)
    degrees = Counter()
    for u, v in edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
        degrees[u] += 1
        degrees[v] += 1
    return {x: sketch_of(bank, keys) for x, keys in neighbors.items()}, degrees


def assert_scores_match(score, reference, pairs):
    for u, v in pairs:
        for name in ALL_MEASURES:
            measure = measure_by_name(name)
            assert score(u, v, name) == reference(measure, u, v), (name, u, v)


# ----------------------------------------------------------------------
# Append-only
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(config=config_st, edges=edges_st, pairs=pairs_st)
def test_append_only_matches_reference(config, edges, pairs):
    predictor = MinHashLinkPredictor(config)
    for u, v in edges:
        predictor.update(u, v)
    rows, degrees = undirected_rows(predictor.bank, edges)

    def reference(measure, u, v):
        return reference_score(measure, rows.get(u), rows.get(v), degrees[u], degrees[v],
                               degrees.__getitem__, config.k)

    assert_scores_match(predictor.score, reference, pairs)
    for u, v in pairs:
        su, sv = rows.get(u), rows.get(v)
        expected = reference_estimate(u, v, su, sv, degrees[u], degrees[v],
                                      degrees.__getitem__, config.k)
        assert predictor.estimate(u, v) == expected
        assert predictor.jaccard(u, v) == expected.jaccard


# ----------------------------------------------------------------------
# Windowed, after pane rotation
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    config=config_st,
    edges=edges_st.filter(lambda edges: len(edges) > 12),
    pane_edges=st.integers(1, 4),
    panes=st.integers(2, 3),
    pairs=pairs_st,
)
def test_windowed_matches_reference(config, edges, pane_edges, panes, pairs):
    predictor = WindowedMinHashPredictor(config, pane_edges=pane_edges, panes=panes)
    for u, v in edges:
        predictor.update(u, v)
    # The window holds the filling pane plus up to panes - 1 full ones.
    head_fill = (len(edges) - 1) % pane_edges + 1
    live_panes = min(panes, (len(edges) - 1) // pane_edges + 1)
    window = edges[len(edges) - (live_panes - 1) * pane_edges - head_fill:]
    assert len(window) < len(edges)  # panes have rotated out
    rows, degrees = undirected_rows(MinHashLinkPredictor(config).bank, window)

    def reference(measure, u, v):
        return reference_score(measure, rows.get(u), rows.get(v), degrees[u], degrees[v],
                               degrees.__getitem__, config.k)

    assert_scores_match(predictor.score, reference, pairs)


# ----------------------------------------------------------------------
# Dynamic, with deletes and TTL expiry
# ----------------------------------------------------------------------

# (u, v, delete?, time step): a delete retracts the drawn pair whether or
# not it is live, so negative counters are exercised too.
# Few vertices, so neighborhoods overlap and expired keys share slots.
DYNAMIC_VERTICES = 6
ops_st = st.lists(
    st.tuples(
        st.integers(0, DYNAMIC_VERTICES - 1),
        st.integers(0, DYNAMIC_VERTICES - 1),
        st.booleans(),
        st.integers(0, 2),
    ).filter(lambda op: op[0] != op[1]),
    max_size=50,
)
ALL_DYNAMIC_PAIRS = [
    (u, v) for u in range(DYNAMIC_VERTICES + 1) for v in range(u, DYNAMIC_VERTICES + 1)
]


def live_state(ops, ttl):
    """Per vertex with any account, its live neighbor keys at the
    stream's high-water time, from the counter semantics: a key is live
    while adds exceed deletes and, under a TTL, its last op is recent."""
    counts = Counter()
    last_seen = {}
    now = 0.0
    for u, v, delete, t in ops:
        now = max(now, t)
        for a, b in ((u, v), (v, u)):
            counts[a, b] += -1 if delete else 1
            last_seen[a, b] = max(last_seen.get((a, b), t), t)
    live = {}
    for (a, b), count in counts.items():
        keys = live.setdefault(a, [])
        if count > 0 and (ttl <= 0 or now - last_seen[a, b] <= ttl):
            keys.append(b)
    return live


@settings(max_examples=60, deadline=None)
@given(config=config_st, raw_ops=ops_st, ttl=st.sampled_from([0.0, 3.0]))
def test_dynamic_matches_reference(config, raw_ops, ttl):
    ops, t = [], 0.0
    for u, v, delete, step in raw_ops:
        t += step
        ops.append((u, v, delete, t))
    check_dynamic(replace(config, ttl=ttl, dynamic_mode=True), ops, ALL_DYNAMIC_PAIRS)


def test_dynamic_ttl_expiry_matches_reference():
    # 0 and 1 share 2, but 0's edge to 2 has expired at t = 10; 0 stays
    # live through 3, and 4's only edge has been deleted.
    ops = [(0, 2, False, 0.0), (1, 2, False, 9.0), (0, 3, False, 10.0), (1, 3, False, 10.0),
           (4, 5, False, 10.0), (4, 5, True, 10.0)]
    check_dynamic(SketchConfig(k=64, seed=1, dynamic_mode=True, ttl=3.0), ops, ALL_DYNAMIC_PAIRS)


def check_dynamic(config, ops, pairs):
    predictor = DynamicMinHashPredictor(config)
    for u, v, delete, t in ops:
        (predictor.delete if delete else predictor.update)(u, v, t)
    live = live_state(ops, config.ttl)
    rows = {x: sketch_of(predictor.bank, keys) for x, keys in live.items()}

    def degree(x):
        return len(live.get(x, ()))

    def reference(measure, u, v):
        return reference_score(measure, rows.get(u), rows.get(v), degree(u), degree(v),
                               degree, config.k)

    assert_scores_match(predictor.score, reference, pairs)
    for u, v in pairs:
        # An endpoint with no account scores 0.0; the degree fields stay
        # each endpoint's live degree, as in the append-only predictor.
        expected = reference_estimate(
            u, v, rows.get(u), rows.get(v), degree(u), degree(v), degree, config.k
        )
        assert predictor.estimate(u, v) == expected
        assert predictor.jaccard(u, v) == expected.jaccard


def test_dynamic_estimate_fields():
    predictor = DynamicMinHashPredictor(SketchConfig(k=64, seed=3))
    for u, v in [(0, 2), (1, 2), (0, 3), (1, 3), (1, 4)]:
        predictor.update(u, v)
    predictor.delete(1, 4)
    estimate = predictor.estimate(0, 1)
    assert (estimate.u, estimate.v, estimate.degree_u, estimate.degree_v) == (0, 1, 2, 2)
    assert estimate.jaccard == predictor.jaccard(0, 1) == predictor.score(0, 1, "jaccard")
    assert estimate.adamic_adar == predictor.score(0, 1, "adamic_adar")
    assert estimate.resource_allocation == predictor.score(0, 1, "resource_allocation")
    assert estimate.common_neighbors == predictor.score(0, 1, "common_neighbors")
    assert estimate.jaccard_std_error == jaccard_std_error(estimate.jaccard, 64)
    # Vertex 4 has an account but no live neighbor; 99 has no account.
    assert predictor.estimate(0, 4) == PairEstimate(0, 4, 0.0, 0.0, 0.0, 0.0, 2, 0, 0.0)
    assert predictor.estimate(0, 99) == PairEstimate(0, 99, 0.0, 0.0, 0.0, 0.0, 2, 0, 0.0)
    assert predictor.estimate(99, 0) == PairEstimate(99, 0, 0.0, 0.0, 0.0, 0.0, 0, 2, 0.0)


# ----------------------------------------------------------------------
# Directed, both directions
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(config=config_st, arcs=edges_st, pairs=pairs_st)
def test_directed_matches_reference(config, arcs, pairs):
    predictor = DirectedMinHashPredictor(config)
    for u, v in arcs:
        predictor.update(u, v)
    for direction in ("out", "in"):
        neighbors = defaultdict(set)
        degrees = Counter()
        for u, v in arcs:
            a, b = (u, v) if direction == "out" else (v, u)
            neighbors[a].add(b)
            degrees[a] += 1
        rows = {x: sketch_of(predictor.bank, keys) for x, keys in neighbors.items()}

        def reference(measure, u, v):
            return reference_score(measure, rows.get(u), rows.get(v), degrees[u], degrees[v],
                                   degrees.__getitem__, config.k)

        def score(u, v, name):
            return predictor.score_directed(u, v, name, direction)

        assert_scores_match(score, reference, pairs)


# ----------------------------------------------------------------------
# Witness measures without witness tracking, on every predictor
# ----------------------------------------------------------------------

SHARED = [(0, 2), (1, 2), (0, 3), (1, 3)]  # 0 and 1 share 2 and 3


def _fed(predictor):
    for u, v in SHARED:
        predictor.update(u, v)
    return predictor


NO_WITNESSES = SketchConfig(k=32, seed=5, track_witnesses=False)
KINDS = ("append_only", "windowed", "dynamic", "directed_out", "directed_in")


def scorer(kind):
    """``(score, pair)``: the predictor's per-pair scorer and a pair whose
    rows share slots in its scoring direction."""
    if kind.startswith("directed"):
        predictor = _fed(DirectedMinHashPredictor(NO_WITNESSES))
        direction = kind.split("_")[1]
        pair = (0, 1) if direction == "out" else (2, 3)
        return lambda u, v, name: predictor.score_directed(u, v, name, direction), pair
    predictor = {
        "append_only": lambda: MinHashLinkPredictor(NO_WITNESSES),
        "windowed": lambda: WindowedMinHashPredictor(NO_WITNESSES, pane_edges=2),
        "dynamic": lambda: DynamicMinHashPredictor(NO_WITNESSES),
    }[kind]()
    return _fed(predictor).score, (0, 1)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("measure", ALL_MEASURES)
def test_witness_measures_need_witness_tracking(kind, measure):
    score, (u, v) = scorer(kind)
    if measure in WITNESS_MEASURES:
        with pytest.raises(SketchStateError):
            score(u, v, measure)
    else:
        assert score(u, v, measure) >= 0.0
    # An unseen endpoint answers 0.0 before any witness is needed.
    assert score(u, 99, measure) == 0.0


@pytest.mark.parametrize("cls", [MinHashLinkPredictor, DynamicMinHashPredictor])
def test_estimate_needs_witness_tracking(cls):
    predictor = _fed(cls(NO_WITNESSES))
    with pytest.raises(SketchStateError):
        predictor.estimate(0, 1)
    assert predictor.estimate(0, 99).adamic_adar == 0.0
