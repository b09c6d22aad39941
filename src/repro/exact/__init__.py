"""Exact measures, the snapshot oracle, and sampling baselines.

This subpackage is the "without sketches" side of the reproduction:
ground-truth measure evaluation (:mod:`repro.exact.measures`), the
full-memory snapshot method (:class:`~repro.exact.oracle.ExactOracle`),
and the bounded-memory sampling competitors
(:mod:`repro.exact.baselines`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.exact.baselines": ["EdgeReservoirBaseline", "NeighborReservoirBaseline"],
        "repro.exact.measures": [
            "ADAMIC_ADAR", "COMMON_NEIGHBORS", "COSINE", "HUB_DEPRESSED",
            "HUB_PROMOTED", "JACCARD", "LEICHT_HOLME_NEWMAN", "MEASURES",
            "PREFERENTIAL_ATTACHMENT", "RESOURCE_ALLOCATION", "SORENSEN", "Measure",
            "adamic_adar", "adamic_adar_weight", "common_neighbors", "cosine",
            "exact_score", "jaccard", "measure_by_name", "preferential_attachment",
            "resource_allocation", "resource_allocation_weight", "sorensen",
            "witness_sum",
        ],
        "repro.exact.oracle": ["ExactOracle"],
    },
)

__all__ = [
    "ADAMIC_ADAR",
    "COMMON_NEIGHBORS",
    "COSINE",
    "HUB_DEPRESSED",
    "HUB_PROMOTED",
    "JACCARD",
    "LEICHT_HOLME_NEWMAN",
    "MEASURES",
    "PREFERENTIAL_ATTACHMENT",
    "RESOURCE_ALLOCATION",
    "SORENSEN",
    "Measure",
    "ExactOracle",
    "EdgeReservoirBaseline",
    "NeighborReservoirBaseline",
    "adamic_adar",
    "adamic_adar_weight",
    "common_neighbors",
    "cosine",
    "exact_score",
    "jaccard",
    "measure_by_name",
    "preferential_attachment",
    "resource_allocation",
    "resource_allocation_weight",
    "sorensen",
    "witness_sum",
]
