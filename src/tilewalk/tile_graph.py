"""Truncated tile graphs: combinatorial and Floyd metrics, flowers,
Gromov products and four-point hyperbolicity diagnostics.

Vertices are the admissible words of level <= max_level; edges join words
whose levels differ by at most one and whose closed tiles intersect.  All
metric quantities computed here are valid for vertex pairs inside the
truncation: in this layered graph a geodesic between two vertices never
needs to visit levels deeper than both endpoints (spot-checked in tests).

Single queries (``graph_distance``, ``bfs_distances``) walk the adjacency
in Python.  The all-pairs diagnostics read one ``distance_table``, a numpy
breadth-first sweep from all sources at once, and ``diameter_comparability``
takes its tile-pair diameters as integers from ``symbolic.pair_diameters``;
both agree exactly with the single-query forms.
"""

from __future__ import annotations

import heapq
import math
import os
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, TextIO

import numpy as np

from .symbolic import (
    ROOT,
    CircleRealization,
    Word,
    enumerate_level,
    pair_diameters,
    tile_arcs,
    tile_of,
    tiles_intersect,
)

DEFAULT_VERTEX_BUDGET = 2_000_000
BUDGET_ENV_VAR = "TILEWALK_BUDGET"


class BudgetExceededError(RuntimeError):
    """Requested truncation level would exceed the vertex budget."""


class TruncationError(ValueError):
    """A vertex outside the truncated graph was requested."""


def vertex_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    return int(raw) if raw else DEFAULT_VERTEX_BUDGET


@dataclass
class TileGraph:
    """Level-layered tile graph truncated at ``max_level``."""

    realization: CircleRealization
    max_level: int
    levels: list[list[Word]]
    adjacency: dict[Word, tuple[Word, ...]]

    def __contains__(self, u: Word) -> bool:
        return u in self.adjacency

    @property
    def vertices(self) -> list[Word]:
        return [u for level in self.levels for u in level]

    @property
    def n_vertices(self) -> int:
        return sum(len(level) for level in self.levels)

    def neighbors(self, u: Word) -> tuple[Word, ...]:
        try:
            return self.adjacency[u]
        except KeyError:
            raise TruncationError(f"vertex {u} not in truncated graph") from None

    def edges(self) -> Iterable[tuple[Word, Word]]:
        for u, nbrs in self.adjacency.items():
            for v in nbrs:
                if (u.level, str(u)) <= (v.level, str(v)):
                    yield (u, v)


def build_graph(realization: CircleRealization, max_level: int,
                budget: int | None = None) -> TileGraph:
    """Build the tile graph up to ``max_level``.

    Candidate neighbors are generated from the d-adic index bands and every
    edge is confirmed with the exact closed-tile intersection oracle, so the
    edge set is exactly {(u,v) : ||u|-|v|| <= 1, A_u and A_v intersect}.
    """
    if max_level < 0:
        raise ValueError("max_level must be >= 0")
    d = realization.degree
    cap = budget if budget is not None else vertex_budget()
    n_vertices = (d ** (max_level + 1) - 1) // (d - 1)
    if n_vertices > cap:
        raise BudgetExceededError(
            f"graph to level {max_level} needs {n_vertices} vertices, budget is {cap}")

    levels = [enumerate_level(realization, n) for n in range(max_level + 1)]
    adjacency: dict[Word, set[Word]] = {u: set() for level in levels for u in level}

    def connect(u: Word, v: Word):
        if u != v and tiles_intersect(realization, u, v):
            adjacency[u].add(v)
            adjacency[v].add(u)

    for n in range(1, max_level + 1):
        size = d**n
        words = levels[n]
        # same-level edges: only index neighbors can touch
        for i in range(size):
            connect(words[i], words[(i + 1) % size])
        # cross-level edges: children band of each level-(n-1) vertex
        for u in levels[n - 1]:
            if u.is_root():
                for v in words:
                    connect(u, v)
                continue
            base = u.index(d) * d
            for j in range(base - 1, base + d + 1):
                connect(u, words[j % size])

    order = {u: (u.level, str(u)) for level in levels for u in level}
    adj = {u: tuple(sorted(nbrs, key=order.__getitem__))
           for u, nbrs in adjacency.items()}
    return TileGraph(realization, max_level, levels, adj)


def graph_distance(graph: TileGraph, u: Word, v: Word) -> int:
    """BFS shortest-path length in the truncated graph."""
    if u not in graph or v not in graph:
        raise TruncationError("both endpoints must lie in the truncated graph")
    try:
        return bfs_distances(graph, u)[v]
    except KeyError:
        raise TruncationError(f"{u} and {v} are disconnected under truncation") from None


def bfs_distances(graph: TileGraph, source: Word) -> dict[Word, int]:
    seen = {source: 0}
    queue = deque([source])
    while queue:
        w = queue.popleft()
        dw = seen[w]
        for nb in graph.neighbors(w):
            if nb not in seen:
                seen[nb] = dw + 1
                queue.append(nb)
    return seen


def gromov_product(graph: TileGraph, u: Word, v: Word) -> Fraction:
    """Gromov product (|u| + |v| - d(u,v)) / 2 with basepoint o.

    Uses d(o,w) = |w|, which holds because levels change by at most one per
    edge while the parent chain realizes |w| steps.
    """
    return Fraction(u.level + v.level - graph_distance(graph, u, v), 2)


def floyd_distance(graph: TileGraph, u: Word, v: Word, a: float) -> float:
    """Weighted shortest-path distance with edge weight e^(-a*max(levels)).

    Diagnostic quantity (floating point); the combinatorial metric and all
    adjacency decisions stay exact.
    """
    if u not in graph or v not in graph:
        raise TruncationError("both endpoints must lie in the truncated graph")
    if u == v:
        return 0.0
    dist = {u: 0.0}
    heap = [(0.0, str(u), u)]
    while heap:
        du, _, w = heapq.heappop(heap)
        if w == v:
            return du
        if du > dist.get(w, math.inf):
            continue
        for nb in graph.neighbors(w):
            cand = du + math.exp(-a * max(w.level, nb.level))
            if cand < dist.get(nb, math.inf):
                dist[nb] = cand
                heapq.heappush(heap, (cand, str(nb), nb))
    raise TruncationError(f"{u} and {v} are disconnected under truncation")


def flower(graph: TileGraph, u: Word) -> set[Word]:
    """All same-level vertices whose tiles meet the tile of u (u included)."""
    if u not in graph:
        raise TruncationError(f"vertex {u} not in truncated graph")
    result = {u}
    for v in graph.neighbors(u):
        if v.level == u.level:
            result.add(v)
    return result


@dataclass
class HyperbolicityReport:
    """Four-point hyperbolicity defect at basepoint o."""

    truncation_level: int
    delta: Fraction                      # half-integer, >= 0
    witness: tuple[Word, Word, Word, Word]
    exhaustive: bool
    n_triples: int


def distance_table(graph: TileGraph, source_level: int) -> np.ndarray:
    """Graph distances from every vertex of level <= ``source_level`` (rows)
    to every vertex of the truncated graph (columns), both in
    ``graph.vertices`` order, as an int8 array: a distance is at most
    2 * max_level (through the root), and a graph of level 64 would need
    2**64 vertices.

    One breadth-first sweep serves all sources at once: the frontier is a
    (source, vertex) bit array, eight sources to a byte, and each step ORs
    it gathered through a neighbour-index array, one neighbour slot at a
    time.  ``bfs_distances`` is the single-source form.
    """
    verts = graph.vertices
    n = len(verts)
    index = {u: i for i, u in enumerate(verts)}
    n_src = sum(len(level) for level in graph.levels[: source_level + 1])
    slots = max((len(nbrs) for nbrs in graph.adjacency.values()), default=0)
    # a vertex pads its unused slots with itself: it is in the frontier
    # only when it has been seen already
    nbr = np.tile(np.arange(n), (slots, 1))
    for i, u in enumerate(verts):
        for k, v in enumerate(graph.neighbors(u)):
            nbr[k, i] = index[v]
    # source s is bit s % 8 of byte row s // 8
    src = np.arange(n_src)
    frontier = np.zeros((-(-n_src // 8), n), dtype=np.uint8)
    frontier[src // 8, src] = 1 << (src % 8)
    seen = frontier.copy()
    gathered = np.empty_like(frontier)
    dist = np.full((n_src, n), -1, dtype=np.int8)
    step = 0
    while frontier.any():
        at_step = np.unpackbits(frontier, axis=0, count=n_src, bitorder="little")
        np.copyto(dist, step, where=at_step.view(bool))
        reached = np.zeros_like(frontier)
        for row in nbr:
            np.take(frontier, row, axis=1, out=gathered)
            reached |= gathered
        reached &= ~seen
        seen |= reached
        frontier = reached
        step += 1
    if (dist < 0).any():
        raise TruncationError("the truncated graph is disconnected")
    return dist


def _vertex_arrays(graph: TileGraph, level_cutoff: int):
    verts = [u for level in graph.levels[: level_cutoff + 1] for u in level]
    n = len(verts)
    dist = distance_table(graph, level_cutoff)[:, :n]
    levels = np.array([u.level for u in verts], dtype=np.int32)
    return verts, levels, dist


def hyperbolicity_delta(graph: TileGraph, level_cutoff: int,
                        triple_budget: int = 30_000_000,
                        sample_size: int = 200_000,
                        seed: int = 0) -> HyperbolicityReport:
    """Worst four-point defect max min{<x,z>, <z,y>} - <x,y> over triples,
    with basepoint w = o, clamped at 0.

    Exhaustive when the triple count fits the budget, otherwise sampled
    (the report records which).  Products are handled as doubled integers so
    the returned delta is an exact half-integer.
    """
    if level_cutoff < 0:
        raise ValueError(f"level cutoff must be >= 0, got {level_cutoff}")
    if level_cutoff > graph.max_level:
        raise TruncationError("cutoff exceeds truncation level")
    verts, levels, dist = _vertex_arrays(graph, level_cutoff)
    n = len(verts)
    # doubled Gromov products: 2<u,v>_o = |u| + |v| - d(u,v)
    g2 = levels[:, None] + levels[None, :] - dist

    best = -1
    witness = (0, 0, 0)
    if n**3 <= triple_budget:
        for z in range(n):
            m = np.minimum.outer(g2[:, z], g2[z, :]) - g2
            xy = int(np.argmax(m))
            val = int(m.flat[xy])
            if val > best:
                best = val
                witness = (xy // n, xy % n, z)
        exhaustive, n_triples = True, n**3
    else:
        rng = random.Random(seed)
        for _ in range(sample_size):
            x = rng.randrange(n)
            y = rng.randrange(n)
            z = rng.randrange(n)
            val = min(g2[x, z], g2[z, y]) - g2[x, y]
            if val > best:
                best = val
                witness = (x, y, z)
        exhaustive, n_triples = False, sample_size

    delta = Fraction(max(best, 0), 2)
    wx, wy, wz = (verts[i] for i in witness)
    return HyperbolicityReport(level_cutoff, delta, (wx, wy, wz, ROOT),
                               exhaustive, n_triples)


@dataclass
class DiameterComparabilityReport:
    """Two-sided constant C with C^-1 <= diam(A_u u A_v) / e^(-a<u,v>) <= C
    over all vertex pairs at levels in [1, pair_level]."""

    pair_level: int
    constant: float
    max_ratio: float
    min_ratio: float
    worst_pair: tuple[Word, Word]


def diameter_comparability(graph: TileGraph, pair_level: int) -> DiameterComparabilityReport:
    """Compare arc diameters of tile pairs against e^(-a<u,v>_o), a = log d.

    Diameters are exact integers over 2 d^pair_level (``pair_diameters``);
    only the final ratios are floats.  Pairs are scanned row by row, so the
    temporaries stay linear in the vertex count.
    """
    if pair_level < 1:
        raise ValueError(f"pair level must be >= 1 (pairs of non-root tiles), "
                         f"got {pair_level}")
    if pair_level > graph.max_level:
        raise TruncationError("pair level exceeds truncation level")
    d = graph.realization.degree
    verts, levels, dist = _vertex_arrays(graph, pair_level)
    big = d**pair_level
    start, width = tile_arcs(graph.realization, verts, pair_level)
    scale = np.array([d ** (k / 2) for k in range(2 * pair_level + 1)])
    max_ratio = 0.0
    min_ratio = math.inf
    worst = (verts[0], verts[0])
    for i in range(1, len(verts)):      # verts[0] is the root
        num = pair_diameters(start[i], width[i], start[i:], width[i:], big)
        g2 = levels[i] + levels[i:] - dist[i, i:]
        ratio = (num / (2 * big)) * scale[g2]
        j = int(np.argmax(ratio))
        if ratio[j] > max_ratio:
            max_ratio = float(ratio[j])
            worst = (verts[i], verts[i + j])
        min_ratio = min(min_ratio, float(ratio.min()))
    constant = max(max_ratio, 1.0 / min_ratio)
    return DiameterComparabilityReport(pair_level, constant, max_ratio,
                                       min_ratio, worst)


def quasi_roundness_constant(realization: CircleRealization, u: Word) -> Fraction:
    """Smallest C0 with B(mid, C0^-1 d^-|u|) <= A_u <= B(mid, C0 d^-|u|).

    For d-adic tiles the midpoint gives C0 = 2 exactly at every level >= 1.
    """
    if u.is_root():
        return Fraction(1)
    t = tile_of(realization, u)
    half = t.width / 2
    scale = Fraction(realization.degree) ** (-u.level)
    # A_u is the ball B(mid, half): C0^-1 scale <= half <= C0 scale
    return max(scale / half, half / scale)


def write_edge_dump(graph: TileGraph, out: TextIO) -> int:
    """One record per edge: u, v, level_u, level_v; lexicographically sorted."""
    rows = sorted((str(u), str(v), u.level, v.level) for u, v in graph.edges())
    for su, sv, lu, lv in rows:
        out.write(f"{su}\t{sv}\t{lu}\t{lv}\n")
    return len(rows)
