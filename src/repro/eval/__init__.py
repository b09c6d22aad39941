"""Evaluation harness: splits, candidate samplers, metrics, shared
experiment procedures, and plain-text reporting.

Benchmarks in ``benchmarks/`` compose these pieces; they are equally
usable directly for custom studies on user data.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.eval.calibration": ["CoverageReport", "coverage_report", "seed_sweep"],
        "repro.eval.candidates": [
            "sample_negative_pairs", "sample_random_pairs", "sample_two_hop_pairs",
        ],
        "repro.eval.experiments": [
            "IngestResult", "RankingResult", "accuracy_profile", "progressive_accuracy",
            "rank_agreement", "ranking_quality", "score_pairs", "temporal_ranking_task",
            "timed_ingest", "timed_queries",
        ],
        "repro.eval.metrics": [
            "average_precision", "error_summary", "kendall_tau", "mean_absolute_error",
            "mean_relative_error", "precision_at", "recall_at", "roc_auc",
            "root_mean_square_error", "spearman_rho",
        ],
        "repro.eval.reporting": [
            "format_cell", "format_series", "format_table", "sparkline",
        ],
        "repro.eval.split": ["prediction_positives", "temporal_split"],
        "repro.eval.sweeps": ["Sweep", "SweepResults"],
    },
)

__all__ = [
    "CoverageReport",
    "IngestResult",
    "RankingResult",
    "accuracy_profile",
    "coverage_report",
    "seed_sweep",
    "average_precision",
    "error_summary",
    "format_cell",
    "format_series",
    "format_table",
    "kendall_tau",
    "mean_absolute_error",
    "mean_relative_error",
    "precision_at",
    "prediction_positives",
    "progressive_accuracy",
    "rank_agreement",
    "ranking_quality",
    "recall_at",
    "roc_auc",
    "root_mean_square_error",
    "sample_negative_pairs",
    "sample_random_pairs",
    "sample_two_hop_pairs",
    "score_pairs",
    "sparkline",
    "spearman_rho",
    "Sweep",
    "SweepResults",
    "temporal_ranking_task",
    "temporal_split",
    "timed_ingest",
    "timed_queries",
]
