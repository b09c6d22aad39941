"""E12 — self-reported uncertainty and LSH retrieval, checked against
their theory.

**E12a: error-bar calibration.**  The predictor ships a ±σ̂ with every
Jaccard estimate; the table reports how often ``Ĵ ± z·σ̂`` actually
covers the exact value, overall and bucketed by the expected collision
count ``k·Ĵ`` (the normal approximation's validity knob).

**E12b: LSH S-curve.**  For controlled set pairs with known Jaccard,
the empirical probability that the banding index reports the pair,
versus the closed form ``1 - (1 - J^rows)^bands``.
"""

from __future__ import annotations

from _common import SCALE, emit, oracle_for, query_pairs, stream_of
from repro.core import LshCandidateIndex, MinHashLinkPredictor, SketchConfig
from repro.eval.calibration import coverage_report
from repro.eval.reporting import format_table
from repro.graph import from_pairs

DATASET = "synth-grqc"
_SHAPE = {}


def run_coverage():
    oracle = oracle_for(DATASET)
    predictor = MinHashLinkPredictor(SketchConfig(k=256, seed=81))
    predictor.process(stream_of(DATASET))
    pairs = query_pairs(DATASET, 400, seed=82)
    report = coverage_report(predictor, oracle, pairs, z_levels=(1.0, 1.96, 3.0))
    rows = [[f"z={z}", "(all pairs)", cov] for z, cov in sorted(report.by_z.items())]
    rows += [
        ["z=1.96", bucket, cov] for bucket, cov in report.by_magnitude.items()
    ]
    _SHAPE["coverage"] = report
    return rows


TRIALS = 200 if SCALE == "full" else 80
BANDS, ROWS = 16, 8


def _pair_with_jaccard(j: float, size: int = 240):
    # Construct |A| = |B| = size with |∩| chosen so J hits the target:
    # J = o / (2*size - o)  =>  o = 2*size*J / (1+J).
    o = round(2 * size * j / (1 + j))
    set_a = list(range(0, size))
    set_b = list(range(size - o, 2 * size - o))
    true_j = o / (2 * size - o)
    return set_a, set_b, true_j


def run_scurve():
    rows = []
    for target in (0.2, 0.4, 0.6, 0.8):
        set_a, set_b, true_j = _pair_with_jaccard(target)
        caught = 0
        for trial in range(TRIALS):
            predictor = MinHashLinkPredictor(
                SketchConfig(k=BANDS * ROWS, seed=trial * 31 + 7)
            )
            edges = [(1_000_000, w + 10) for w in set_a] + [
                (2_000_000, w + 10) for w in set_b
            ]
            predictor.process(from_pairs(edges))
            index = LshCandidateIndex(predictor.export_arrays(), bands=BANDS, rows=ROWS)
            pairs = {(c.u, c.v) for c in index.candidate_pairs()}
            if (1_000_000, 2_000_000) in pairs:
                caught += 1
        empirical = caught / TRIALS
        predicted = 1.0 - (1.0 - true_j**ROWS) ** BANDS
        rows.append([true_j, empirical, predicted])
        _SHAPE[("scurve", round(true_j, 2))] = (empirical, predicted)
    return rows


def test_e12_error_bar_calibration(benchmark):
    rows = benchmark.pedantic(run_coverage, rounds=1, iterations=1)
    emit(
        "e12_calibration",
        format_table(
            ["interval", "bucket", "empirical coverage"],
            rows,
            title=f"E12a: coverage of Ĵ ± z·σ̂ on {DATASET} (k=256, 400 pairs)",
            precision=3,
        ),
    )
    report = _SHAPE["coverage"]
    # Shape: monotone in z; z=3 covers the bulk; large-kJ bucket is
    # well calibrated at 1.96 (>= 85%).
    assert report.by_z[1.0] <= report.by_z[1.96] <= report.by_z[3.0]
    assert report.by_z[3.0] > 0.85
    if "kJ>=20" in report.by_magnitude:
        assert report.by_magnitude["kJ>=20"] > 0.85


def test_e12_lsh_s_curve(benchmark):
    rows = benchmark.pedantic(run_scurve, rounds=1, iterations=1)
    emit(
        "e12_lsh_scurve",
        format_table(
            ["true J", "empirical capture", "1-(1-J^r)^b"],
            rows,
            title=f"E12b: LSH capture probability, {BANDS} bands x {ROWS} rows "
            f"({TRIALS} independent hash draws)",
            precision=3,
        ),
    )
    scurve_items = [
        (key[1], value)
        for key, value in _SHAPE.items()
        if isinstance(key, tuple) and key[0] == "scurve"
    ]
    for j, (empirical, predicted) in scurve_items:
        # Binomial noise: allow ~4 standard errors around the formula.
        slack = 4.0 * (max(predicted * (1 - predicted), 0.01) / TRIALS) ** 0.5
        assert abs(empirical - predicted) <= slack + 0.03, j
    # The S shape itself: capture at J=0.8 far exceeds capture at J=0.2.
    assert _SHAPE[("scurve", 0.8)][0] > _SHAPE[("scurve", 0.2)][0] + 0.5
