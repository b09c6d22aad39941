"""repro — sketch-based streaming link prediction.

A from-scratch reproduction of *"Link prediction in graph streams"*
(Zhao, Aggarwal & He, ICDE 2016): constant-space-per-vertex MinHash
sketches that estimate Jaccard, common-neighbor and Adamic–Adar link
prediction measures over unbounded edge streams, with a vertex-biased
variant, exact and sampling baselines, synthetic SNAP-profile datasets,
and a full evaluation harness.  (See DESIGN.md for why the requested
"Dark Data" panel title resolves to this paper.)

Quick start — the :mod:`repro.api` facade covers the whole pipeline in
five verbs::

    from repro import SketchConfig, ingest, open_engine, evaluate, serve

    report = ingest("synth-facebook", config=SketchConfig(k=128, seed=42),
                    workers=4)                  # sharded, bit-identical
    engine = open_engine(report.predictor)
    scores = engine.score_many([(10, 42), (7, 99)], "adamic_adar")
    errors = evaluate("synth-facebook", config=SketchConfig(k=128))
    serve(report.predictor, port=8080).run()    # HTTP serving tier

The subpackages, bottom-up: :mod:`repro.hashing` (seeded hash
families), :mod:`repro.sketches` (MinHash / bottom-k / weighted MinHash
/ HLL / Count-Min / reservoir / Bloom), :mod:`repro.graph` (streams,
generators, datasets, I/O), :mod:`repro.exact` (ground truth and
baselines), :mod:`repro.core` (the paper's predictors),
:mod:`repro.eval` (splits, metrics, experiment machinery),
:mod:`repro.stream` (fault-tolerant ingestion), :mod:`repro.parallel`
(sharded parallel ingestion), :mod:`repro.serve` (the batch query
engine) and :mod:`repro.obs` (metrics and tracing).  All stay public —
the facade composes them and ``repro.api.__all__`` is the documented
stable surface.
"""

# The facade function ``serve`` shares its name with the subpackage, and
# a submodule is bound on its parent when it first loads.  So the (lazy,
# cheap) subpackage loads here, before the function is bound: a later
# ``import repro.serve.engine`` finds it loaded and leaves ``repro.serve``
# the function.
import repro.serve as _serve_subpackage  # noqa: F401
from repro._lazy import lazy_exports
from repro.api import (
    IngestReport,
    StreamRecord,
    build_predictor,
    evaluate,
    ingest,
    open_engine,
    serve,
)

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.biased": ["BiasedMinHashLinkPredictor"],
        "repro.core.config": ["SketchConfig"],
        "repro.core.dynamic": ["DynamicMinHashPredictor"],
        "repro.core.predictor": ["MinHashLinkPredictor", "PairEstimate"],
        "repro.errors": ["ReproError"],
        "repro.exact.oracle": ["ExactOracle"],
        "repro.interface": ["LinkPredictor"],
        "repro.serve.engine": ["QueryEngine"],
    },
)

__version__ = "1.1.0"

__all__ = [
    "BiasedMinHashLinkPredictor",
    "DynamicMinHashPredictor",
    "ExactOracle",
    "IngestReport",
    "LinkPredictor",
    "MinHashLinkPredictor",
    "PairEstimate",
    "QueryEngine",
    "ReproError",
    "SketchConfig",
    "StreamRecord",
    "build_predictor",
    "evaluate",
    "ingest",
    "open_engine",
    "serve",
    "__version__",
]
