"""The paper's contribution: sketch-based streaming link prediction.

Public entry points:

* :class:`~repro.core.predictor.MinHashLinkPredictor` — the uniform
  MinHash method (Jaccard, common neighbors, Adamic–Adar, and the rest
  of the measure registry).
* :class:`~repro.core.biased.BiasedMinHashLinkPredictor` — the
  vertex-biased variant specialised for weighted witness sums.
* :class:`~repro.core.config.SketchConfig` — all knobs, plus the
  accuracy-planning helpers derived from the Hoeffding guarantee.
* :func:`~repro.core.registry.build_predictor` — string-keyed factory
  over every method, including the exact oracle and the sampling
  baselines.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.biased": ["BiasedMinHashLinkPredictor"],
        "repro.core.block": [
            "apply_dynamic_block", "apply_edge_block", "coerce_edge_batch",
        ],
        "repro.core.config": [
            "SketchConfig", "hoeffding_epsilon", "hoeffding_failure_probability",
            "required_k",
        ],
        "repro.core.degrees": ["CountMinDegrees", "DegreeTracker", "ExactDegrees"],
        "repro.core.directed": ["DirectedExactOracle", "DirectedMinHashPredictor"],
        "repro.core.dynamic": [
            "DynamicArrays", "DynamicMinHashPredictor", "merge_dynamic_shards",
        ],
        "repro.core.lshindex": [
            "LshCandidateIndex", "bands_for_threshold", "lsh_threshold",
        ],
        "repro.core.memory": ["MemoryReport", "memory_report"],
        "repro.core.persistence": ["load_predictor", "save_predictor"],
        "repro.core.predictor": [
            "MinHashLinkPredictor", "PairEstimate", "merge_shards",
        ],
        "repro.core.registry": ["METHODS", "build_predictor", "equal_space_parameters"],
        "repro.core.windowed": ["WindowedMinHashPredictor"],
    },
)

__all__ = [
    "BiasedMinHashLinkPredictor",
    "CountMinDegrees",
    "DegreeTracker",
    "DirectedExactOracle",
    "DirectedMinHashPredictor",
    "DynamicArrays",
    "DynamicMinHashPredictor",
    "ExactDegrees",
    "LshCandidateIndex",
    "METHODS",
    "MemoryReport",
    "MinHashLinkPredictor",
    "PairEstimate",
    "SketchConfig",
    "WindowedMinHashPredictor",
    "apply_dynamic_block",
    "apply_edge_block",
    "coerce_edge_batch",
    "bands_for_threshold",
    "build_predictor",
    "equal_space_parameters",
    "lsh_threshold",
    "hoeffding_epsilon",
    "hoeffding_failure_probability",
    "load_predictor",
    "memory_report",
    "merge_dynamic_shards",
    "merge_shards",
    "required_k",
    "save_predictor",
]
