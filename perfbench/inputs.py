"""Seeded inputs: one power-law edge stream with hostile lines, plus traffic.

Nothing here imports the program under test, so the bytes a seed yields
stay the same however ``src/`` changes.  The stream is a Barabasi-Albert
graph (every new vertex attaches ``ATTACH`` edges preferentially, which
gives the power-law degree tail real link-prediction graphs have) with
vertex ids scattered over a sparse id space, written one ``u v`` line
per edge in arrival order.  About 2% of the lines are hostile, and each
kind has a known fate under the casebook's uniform ``normalize``
policy, so the benchmark can check the program's dead-letter and
repair counters exactly:

==================  =========================  ==========================
line                casebook case              fate under ``normalize``
==================  =========================  ==========================
``u v`` again       ``duplicate_edge``         repaired by removal
``u u``             ``self_loop``              repaired by removal
``u,v``             ``mixed_delimiter``        repaired, edge kept
``\\ufeffu v\\x00``   ``bad_encoding``           repaired, edge kept
``u v 7 junk``      ``bad_arity``              dead-lettered
``vU vV``           ``non_integer_vertex``     dead-lettered
``-u v``            ``negative_vertex``        dead-lettered
==================  =========================  ==========================

The repaired forms of ``mixed_delimiter`` and ``bad_encoding`` lines
are clean edges of the graph, so the accepted edge set is exactly the
clean edge set.

Preferential attachment gives almost every pair a small Jaccard
similarity, which an estimator stuck near zero would match.  So the
stream ends with *twins*: new vertices linked to a random subset (half
to all) of an existing vertex's neighbours, whose pair with that vertex
has an exact Jaccard of about 0.5 to 1 (the last twin takes what is
left of the budget).  The accuracy check samples every twin.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: Clean edges per stream.  Sized so one serial file-to-checkpoint pass
#: takes a few seconds on a 2-core host and the LSH index of the served
#: generation builds in about two seconds (index build is linear in
#: vertices, and it is part of serve-static's set-up).
EDGES = 100_000
#: Edges each new vertex attaches (Barabasi-Albert ``m``).
ATTACH = 16
#: Clean edges spent on twins (part of ``EDGES``), at the end of the stream.
TWIN_EDGES = 2_000

#: Hostile lines per clean edge, by casebook case.
HOSTILE_SHARE = {
    "duplicate_edge": 0.005,
    "self_loop": 0.002,
    "mixed_delimiter": 0.003,
    "bad_encoding": 0.003,
    "bad_arity": 0.002,
    "non_integer_vertex": 0.002,
    "negative_vertex": 0.002,
}
#: Cases the normalize policy repairs (counted in ``normalized_reasons``).
REPAIRED = ("duplicate_edge", "self_loop", "mixed_delimiter", "bad_encoding")
#: Cases with no sound repair (counted in ``dead_letter_reasons``).
DEAD_LETTERED = ("bad_arity", "non_integer_vertex", "negative_vertex")

#: Request kinds of the traffic mix: (name, measure, pairs per request).
SCORE_SMALL = ("score16", "jaccard", 16)
SCORE_LARGE = ("score256", "adamic_adar", 256)
TOPK = ("topk", "jaccard", 10)
#: serve-static: mostly small Jaccard batches, some large Adamic-Adar
#: batches and a few top-k queries.  The shares keep the median inside
#: the small-batch class and the 90th percentile inside the large-batch
#: class: a percentile that falls on the boundary between two classes
#: jumps with the sampled share of each and does not repeat.
MIX_STATIC = ((SCORE_SMALL, 0.70), (SCORE_LARGE, 0.25), (TOPK, 0.05))
#: serve-live and the read-after-write probe: scoring only.
MIX_SCORE = ((SCORE_SMALL, 0.75), (SCORE_LARGE, 0.25))


@dataclass
class Stream:
    """One seed's stream and everything the checks need to know about it."""

    seed: int
    lines: List[str]
    edges: List[Tuple[int, int]]
    normalized: Dict[str, int]
    dead_lettered: Dict[str, int]
    pairs: List[Tuple[int, int]] = field(default_factory=list)
    hubs: List[int] = field(default_factory=list)
    #: ``(twin, original)`` pairs, exact Jaccard about 0.5 to 1.
    twins: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def records(self) -> int:
        return len(self.lines)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("# perfbench stream, seed %d\n" % self.seed)
            for line in self.lines:
                handle.write(line + "\n")


def barabasi_albert(edges: int, attach: int, rng: random.Random) -> List[Tuple[int, int]]:
    """Preferential-attachment edges in arrival order, no duplicates."""
    out: List[Tuple[int, int]] = []
    repeated: List[int] = []
    vertex = attach
    while len(out) < edges:
        chosen = set()
        while len(chosen) < attach:
            chosen.add(rng.choice(repeated) if repeated else rng.randrange(vertex))
        for target in sorted(chosen):
            out.append((vertex, target))
        repeated.extend(chosen)
        repeated.extend([vertex] * attach)
        vertex += 1
    return out[:edges]


def add_twins(edges: List[Tuple[int, int]], budget: int, rng: random.Random):
    """Append twins until ``budget`` edges are spent; returns the
    ``(twin, original)`` pairs.  Each twin links to a random half-to-all
    subset of one original's neighbours, and to nothing else, so the
    pair's exact Jaccard is the subset's share of the neighbourhood."""
    neighbours: Dict[int, List[int]] = {}
    for u, v in edges:
        neighbours.setdefault(u, []).append(v)
        neighbours.setdefault(v, []).append(u)
    # Modest degrees: many twins per budget, none of them a hub's copy.
    originals = [v for v in sorted(neighbours) if len(neighbours[v]) <= 2 * ATTACH]
    twin = 1 + max(neighbours)
    pairs: List[Tuple[int, int]] = []
    while budget > 0:
        original = rng.choice(originals)
        ring = neighbours[original]
        size = min(budget, max(1, round(rng.uniform(0.5, 1.0) * len(ring))))
        edges.extend((twin, target) for target in sorted(rng.sample(ring, size)))
        pairs.append((twin, original))
        budget -= size
        twin += 1
    return pairs


def make_stream(seed: int, edges: int = EDGES, attach: int = ATTACH) -> Stream:
    rng = random.Random(seed)
    raw = barabasi_albert(edges - TWIN_EDGES, attach, rng)
    twins = add_twins(raw, TWIN_EDGES, rng)
    vertices = 1 + max(max(edge) for edge in raw)
    # Scatter ids so the program never sees a dense 0..n range.
    ids = rng.sample(range(1, 64 * vertices), vertices)
    clean = [(ids[u], ids[v]) for u, v in raw]
    lines = ["%d %d" % edge for edge in clean]
    counts = {case: int(round(share * edges)) for case, share in HOSTILE_SHARE.items()}
    # Formatting damage rewrites distinct clean lines in place.
    damaged = rng.sample(range(edges), counts["mixed_delimiter"] + counts["bad_encoding"])
    for index in damaged[: counts["mixed_delimiter"]]:
        u, v = clean[index]
        lines[index] = "%d,%d" % (u, v)
    for index in damaged[counts["mixed_delimiter"]:]:
        u, v = clean[index]
        lines[index] = "\ufeff%d %d\x00" % (u, v)
    # Extra lines are inserted after a seeded position; a duplicate is
    # always placed after the edge it repeats.
    inserts: List[Tuple[int, int, str]] = []
    for n in range(counts["duplicate_edge"]):
        index = rng.randrange(edges)
        u, v = clean[index]
        if n % 2:
            u, v = v, u
        inserts.append((rng.randrange(index, edges), n, "%d %d" % (u, v)))
    for case in ("self_loop", "bad_arity", "non_integer_vertex", "negative_vertex"):
        for n in range(counts[case]):
            index = rng.randrange(edges)
            u, v = clean[index]
            text = {
                "self_loop": "%d %d" % (u, u),
                "bad_arity": "%d %d 7 junk" % (u, v),
                "non_integer_vertex": "v%d v%d" % (u, v),
                "negative_vertex": "-%d %d" % (u, v),
            }[case]
            inserts.append((index, len(inserts), text))
    inserts.sort()
    merged: List[str] = []
    cursor = 0
    for index, _, text in inserts:
        merged.extend(lines[cursor : index + 1])
        cursor = index + 1
        merged.append(text)
    merged.extend(lines[cursor:])
    stream = Stream(
        seed=seed,
        lines=merged,
        edges=clean,
        normalized={case: counts[case] for case in REPAIRED},
        dead_lettered={case: counts[case] for case in DEAD_LETTERED},
    )
    stream.pairs, stream.hubs = _query_pool(clean, rng)
    stream.twins = [(ids[t], ids[o]) for t, o in twins]
    return stream


def _query_pool(edges, rng: random.Random, size: int = 20_000):
    """Two-hop candidate pairs (80%) and random vertex pairs (20%), plus
    top-k vertices drawn degree-biased (endpoints of random edges)."""
    neighbours: Dict[int, List[int]] = {}
    for u, v in edges:
        neighbours.setdefault(u, []).append(v)
        neighbours.setdefault(v, []).append(u)
    vertices = sorted(neighbours)
    pairs: List[Tuple[int, int]] = []
    while len(pairs) < size:
        if rng.random() < 0.8:
            a, b = edges[rng.randrange(len(edges))]
            c = rng.choice(neighbours[b])
            if c != a:
                pairs.append((a, c))
        else:
            a, c = rng.choice(vertices), rng.choice(vertices)
            if a != c:
                pairs.append((a, c))
    hubs = [edges[rng.randrange(len(edges))][rng.randrange(2)] for _ in range(512)]
    return pairs, hubs


def traffic(stream: Stream, mix, count: int, seed: int) -> List[Tuple[str, str, object]]:
    """``count`` requests of ``mix``: ``(kind, measure, pairs-or-vertex)``."""
    rng = random.Random(seed * 7919 + 17)
    kinds = [entry for entry, _ in mix]
    weights = [weight for _, weight in mix]
    out = []
    pool = stream.pairs
    for _ in range(count):
        kind, measure, size = rng.choices(kinds, weights)[0]
        if kind == "topk":
            out.append((kind, measure, stream.hubs[rng.randrange(len(stream.hubs))]))
        else:
            start = rng.randrange(len(pool) - size)
            out.append((kind, measure, pool[start : start + size]))
    return out
