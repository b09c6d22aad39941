"""Directed streaming link prediction (extension).

The paper folds directed datasets to undirected before sketching; this
module keeps the directions.  Each vertex carries **two** MinHash
sketches — one of its successor set, one of its predecessor set — plus
two degree counters.  A query hands one direction's two rows and degree
table to :func:`~repro.core.estimators.score_rows`, the per-pair
estimator of the undirected predictors:

* ``direction="out"``: measures over common *successors* — "u and v
  follow the same accounts" (homophily of interests);
* ``direction="in"``: measures over common *predecessors* — "u and v
  are followed by the same accounts" (shared audience, the classic
  co-citation signal).

Space is exactly twice the undirected predictor (still constant per
vertex); each arc updates one out-sketch and one in-sketch.

The :class:`~repro.interface.LinkPredictor` protocol's direction-less
``score`` defaults to ``"out"``; :meth:`score_directed` exposes the
full interface, and :meth:`DirectedExactOracle.score_directed` mirrors
it exactly on a materialised :class:`~repro.graph.digraph.
DirectedGraph`, so directed accuracy studies work like undirected ones.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.config import SketchConfig
from repro.core.degrees import DegreeTracker, ExactDegrees
from repro.core.estimators import score_rows
from repro.errors import ConfigurationError
from repro.exact.measures import measure_by_name
from repro.graph.digraph import DirectedGraph
from repro.hashing import HashBank
from repro.interface import LinkPredictor
from repro.sketches.minhash import KMinHash

__all__ = ["DirectedMinHashPredictor", "DirectedExactOracle"]

_DIRECTIONS = ("out", "in")


def _check_direction(direction: str) -> None:
    if direction not in _DIRECTIONS:
        raise ConfigurationError(
            f"direction must be 'out' or 'in', got {direction!r}"
        )


class DirectedMinHashPredictor(LinkPredictor):
    """Direction-aware MinHash streaming link predictor."""

    method_name = "directed_minhash"

    __slots__ = ("config", "bank", "_sketches", "_degrees")

    def __init__(self, config: Optional[SketchConfig] = None) -> None:
        self.config = config or SketchConfig()
        if self.config.degree_mode != "exact":
            raise ConfigurationError(
                "the directed predictor tracks exact directional degrees; "
                f"got degree_mode={self.config.degree_mode!r}"
            )
        self.bank = HashBank(self.config.seed ^ 0xD12EC7, self.config.k)
        self._sketches: Dict[str, Dict[int, KMinHash]] = {"out": {}, "in": {}}
        self._degrees: Dict[str, DegreeTracker] = {
            "out": ExactDegrees(),
            "in": ExactDegrees(),
        }

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def _sketch_of(self, direction: str, vertex: int) -> KMinHash:
        store = self._sketches[direction]
        sketch = store.get(vertex)
        if sketch is None:
            sketch = KMinHash(self.bank, track_witnesses=self.config.track_witnesses)
            store[vertex] = sketch
        return sketch

    def update(self, u: int, v: int) -> None:
        """Consume one *arc* ``u -> v``.

        ``v`` joins u's successor sketch; ``u`` joins v's predecessor
        sketch; the two directional degrees increment.
        """
        if u == v:
            raise ConfigurationError(f"self-loop on vertex {u} is not allowed")
        if u < 0 or v < 0:
            raise ConfigurationError(f"vertex ids must be non-negative, got ({u}, {v})")
        hashes_v, hashes_u = self.bank.values_pair(v, u)
        self._sketch_of("out", u).update_hashed(v, hashes_v)
        self._sketch_of("in", v).update_hashed(u, hashes_u)
        self._degrees["out"].increment(u)
        self._degrees["in"].increment(v)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def degree(self, vertex: int) -> int:
        """Protocol degree: the *out*-degree (see :meth:`degree_directed`)."""
        return self._degrees["out"].get(vertex)

    def degree_directed(self, vertex: int, direction: str) -> int:
        """Directional degree (0 for unseen vertices)."""
        _check_direction(direction)
        return self._degrees[direction].get(vertex)

    def score(self, u: int, v: int, measure_name: str) -> float:
        """Protocol score: the ``"out"`` direction."""
        return self.score_directed(u, v, measure_name, "out")

    def score_directed(
        self, u: int, v: int, measure_name: str, direction: str
    ) -> float:
        """Any registered measure over the directional neighborhoods.

        Witness weights are evaluated at the witness's degree *in the
        same direction* (a common successor's weight uses its own
        out-degree — the directed Adamic–Adar convention of scoring a
        witness by how selective its behaviour is in that direction).
        """
        _check_direction(direction)
        measure = measure_by_name(measure_name)
        su = self._sketches[direction].get(u)
        sv = self._sketches[direction].get(v)
        if su is None or sv is None:
            return 0.0
        get = self._degrees[direction].get
        return score_rows(
            measure, su.values, sv.values, su.witnesses, get(u), get(v), get, self.config.k
        )

    @property
    def vertex_count(self) -> int:
        """Vertices with at least one sketch (either direction)."""
        return len(self._sketches["out"].keys() | self._sketches["in"].keys())

    def nominal_bytes(self) -> int:
        sketch_bytes = sum(
            sketch.nominal_bytes()
            for store in self._sketches.values()
            for sketch in store.values()
        )
        degree_bytes = sum(d.nominal_bytes() for d in self._degrees.values())
        return sketch_bytes + degree_bytes

    def __repr__(self) -> str:
        return (
            f"DirectedMinHashPredictor(k={self.config.k}, "
            f"vertices={self.vertex_count})"
        )


class DirectedExactOracle(LinkPredictor):
    """Exact directed comparator (materialises the digraph)."""

    method_name = "directed_exact"

    __slots__ = ("graph",)

    def __init__(self) -> None:
        self.graph = DirectedGraph()

    def update(self, u: int, v: int) -> None:
        """Insert the arc ``u -> v``."""
        self.graph.add_arc(u, v)

    def degree(self, vertex: int) -> int:
        return self.graph.out_degree(vertex)

    def degree_directed(self, vertex: int, direction: str) -> int:
        """Directional degree (0 for unseen vertices)."""
        _check_direction(direction)
        return self.graph.degree(vertex, direction) if vertex in self.graph else 0

    def score(self, u: int, v: int, measure_name: str) -> float:
        return self.score_directed(u, v, measure_name, "out")

    def score_directed(
        self, u: int, v: int, measure_name: str, direction: str
    ) -> float:
        """Exact directional measure (same conventions as the sketch)."""
        _check_direction(direction)
        measure = measure_by_name(measure_name)
        du = self.degree_directed(u, direction)
        dv = self.degree_directed(v, direction)
        if measure.kind == "degree_product":
            return float(du * dv)
        if du == 0 or dv == 0:
            return 0.0
        nu = self.graph.neighborhood(u, direction)
        nv = self.graph.neighborhood(v, direction)
        if len(nu) > len(nv):
            nu, nv = nv, nu
        shared = [w for w in nu if w in nv]
        if measure.kind == "overlap_ratio":
            return measure.ratio(float(len(shared)), du, dv)  # type: ignore[misc]
        return sum(
            measure.witness_weight(self.degree_directed(w, direction))  # type: ignore[misc]
            for w in shared
        )

    @property
    def vertex_count(self) -> int:
        """Vertices materialised so far."""
        return self.graph.vertex_count

    def nominal_bytes(self) -> int:
        return self.graph.nominal_bytes()

    def __repr__(self) -> str:
        return f"DirectedExactOracle({self.graph!r})"
