"""Exact Green and Martin kernels by layered dynamic programming, shadows
and neighborhoods, multiplicativity checks, Martin traces along rays, and
the boundary classifier for the doubling-map kernel family.

Because every transition strictly increases the level, the hitting
probability F(u,v) (= the Green function, as the walk never returns) is a
finite sum over monotone paths.  Two exact DP directions are used:

* forward from a source over its reachability cone, one level at a time
  (``green_table``) -- memory is bounded by the cone width, not the full
  level size, so deep sources stay cheap;
* backward from a single target over its ancestor cone
  (``hitting_vector``) -- this yields F(u, target) for every u at once and
  is what path functionals use at depth 20+; Martin traces run it from the
  tiles of all their rays at once and read only their window;
* both joined at a split level (``root_numerators``) -- F(o, t) for a batch
  of targets t, as the Green drift reads it at the end of every path.

All three add integer numerators over powers of the lcm Q of the row
denominators on the kernel's step tables; Fractions are built at the edge.

Shadows, their hulls and neighborhoods depend only on the support of F: a
shadow is the sorted tile-index array per level of the forward DP, and the
tiles whose shadows meet it are the support of the backward DP from its
deepest levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, TextIO

import numpy as np

from .kernels import BLOCK, Kernel, LevelOverflowError, doubling_weights, index_dtype, value_dtype
from .symbolic import ROOT, TileInterval, Word


@dataclass
class GreenTable:
    """F(source, v) for every v in the source's cone up to max_level.

    Absent targets have F = 0; the key set at each level is the truncated
    shadow of the source.
    """

    source: Word
    max_level: int
    values: dict[Word, Fraction]

    def value(self, v: Word) -> Fraction:
        return self.values.get(v, Fraction(0))

    def support(self, level: int) -> set[Word]:
        return {w for w in self.values if w.level == level}


# -- the exact integer DP core ----------------------------------------------------


def _forward(kernel: Kernel, source: Word, stop: int) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Forward DP from the source, stepping out of the levels below ``stop``:
    per level n, the tiles reached and Q^(n - |source|) times the mass of
    the paths whose first tile of level >= stop is there, which is F(source,
    v) on the levels up to ``stop``."""
    d, top = kernel.realization.degree, stop + kernel.radius - 1
    dtype = value_dtype(kernel.scale ** (top - source.level))
    found = {source.level: [(np.array([source.index(d)], dtype=index_dtype(d, top)),
                             np.ones(1, dtype=dtype))]}
    out = {}
    for n in range(source.level, top + 1):
        if n not in found:
            continue
        # sum what reaches each tile; every transition counted is positive
        reached, contributions = zip(*found.pop(n))
        cells, inverse = np.unique(np.concatenate(reached) % d**n, return_inverse=True)
        values = np.zeros(len(cells), dtype=dtype)
        np.add.at(values, inverse, np.concatenate(contributions))
        out[n] = cells, values
        if n < stop:
            if n + 1 > kernel.depth_limit:
                raise LevelOverflowError(f"transition past depth limit {kernel.depth_limit}")
            rid = kernel.row_id(n, cells).astype(np.int64)
            for r, (offsets, mask, weights) in enumerate(kernel.step_tables, 1):
                found.setdefault(n + r, []).append(
                    ((d**r * cells[:, None] + offsets[rid])[mask[rid]],
                     (values[:, None] * weights[rid])[mask[rid]]))
    return out


def _stencil(kernel: Kernel, l: int, r: int, shifts: range, width: int,
             above: int) -> np.ndarray:
    """``stencil[c, k, s, t]``: the weight by which cover tile lo + s of level
    l steps r levels to slot t of a band of width ``above`` starting at
    d^r lo - shifts[k], for lo = c modulo the row count of level l."""
    d, n0 = kernel.realization.degree, kernel.base_level
    offsets, mask, weights = kernel.step_tables[r - 1]
    c, k, s = np.ix_(np.arange(d ** min(l, n0)), np.arange(len(shifts)), np.arange(width))
    # the row of a cover tile: its index mod d^l on window levels, its class above
    rid = kernel.row_id(l, (c + s) % d**l if l <= n0 else c + s)
    at = (shifts[0] + k + d**r * s)[..., None] + offsets[rid]
    ok = mask[rid] & (at >= 0) & (at < above)
    stencil = np.zeros(ok.shape[:3] + (above,), dtype=weights.dtype)
    np.add.at(stencil, np.nonzero(ok)[:3] + (at[ok],), np.broadcast_to(weights[rid], ok.shape)[ok])
    return stencil


def _backward(kernel: Kernel, level: int, targets: np.ndarray, stop: int):
    """Backward DP from the level-``level`` tiles indexed ``targets``, all at
    once: yields (l, lo, band) for the levels l = level .. stop that a path
    reaches, ``band[p, s]`` being Q^(level - l) F(lo[p] + s, target p) on
    the integer cover of the circle.

    A cover tile of level l is an integer I, standing for the tile I mod
    d^l, and steps to d^r I + offset.  Every path lifts uniquely to a cover
    path ending at the target's index, so F(u, target) sums the band over
    the lifts of u: fold mod d^l to read a level out.  A band spans the
    integers stepping into the R bands above it.
    """
    d, n0 = kernel.realization.degree, kernel.base_level
    if level > kernel.depth_limit:
        raise LevelOverflowError(f"transition past depth limit {kernel.depth_limit}")
    dtype = value_dtype(kernel.scale ** (level - stop))
    bands = {level: (targets, np.ones((len(targets), 1), dtype=dtype))}
    yield level, *bands[level]
    tables = kernel.band_tables
    for l in range(level - 1, stop - 1, -1):
        # the rows of level l: the window's, or the class rows above it
        kind, size = min(l, n0 + 1), d ** min(l, n0)
        if kind not in tables:
            rows = slice(kernel.row_id(l, 0), kernel.row_id(l, 0) + size)
            tables[kind] = [(r, int(offsets[rows][mask[rows]].min()),
                             int(offsets[rows][mask[rows]].max()))
                            for r, (offsets, mask, _) in enumerate(kernel.step_tables, 1)
                            if mask[rows].any()]
        steps = [(r, low, high, *bands[l + r]) for r, low, high in tables[kind] if l + r in bands]
        if not steps:
            continue
        # I steps into [lo_r, lo_r + width_r) by an offset o in [low, high] iff
        # lo_r <= d^r I + o < lo_r + width_r
        lo = np.min([-((high - lo_r) // d**r) for r, _, high, lo_r, _ in steps], axis=0)
        width = 1 + int((np.max([(lo_r + b.shape[1] - 1 - low) // d**r
                                 for r, low, _, lo_r, b in steps], axis=0) - lo).max())
        band = np.zeros((len(lo), width), dtype=dtype)
        for r, _, _, lo_r, above in steps:
            shift = (d**r * lo - lo_r).astype(np.int64)
            shifts = range(int(shift.min()), int(shift.max()) + 1)
            key = (kind, r, shifts, width, above.shape[1])
            if key not in tables:
                tables[key] = _stencil(kernel, l, r, shifts, width, above.shape[1])
            at = tables[key][(lo % size).astype(np.int64), shift - shifts[0]]
            band += np.einsum("pst,pt->ps", at, above)
        if band.any():
            bands[l] = lo, band
            bands.pop(l + kernel.radius, None)
            yield l, lo, band


def green_table(kernel: Kernel, source: Word, max_level: int) -> GreenTable:
    """Forward cone DP: F(source, v) = sum_w F(source, w) P(w, v), processed
    in level order; F(source, source) = 1."""
    if source.level > max_level:
        raise ValueError("source deeper than max_level")
    d = kernel.realization.degree
    return GreenTable(source, max_level, {
        Word.from_index(i, n, d): Fraction(num, kernel.scale ** (n - source.level))
        for n, (cells, nums) in _forward(kernel, source, max_level).items() if n <= max_level
        for i, num in zip(cells.tolist(), nums.tolist())})


def hitting_vector(kernel: Kernel, target: Word) -> dict[Word, Fraction]:
    """Backward cone DP: F(u, target) keyed by u, for exactly the u with
    F(u, target) > 0, the target included (and the root only if it reaches
    the target)."""
    d, m = kernel.realization.degree, target.level
    targets = np.array([target.index(d)], dtype=index_dtype(d, m))
    values: dict[Word, Fraction] = {}
    for l, lo, band in _backward(kernel, m, targets, 0):
        # fold the lifts of each tile
        nums: dict[int, int] = {}
        for i, num in enumerate(band[0].tolist(), int(lo[0])):
            if num:
                nums[i % d**l] = nums.get(i % d**l, 0) + num
        values.update((Word.from_index(i, l, d), Fraction(num, kernel.scale ** (m - l)))
                      for i, num in nums.items())
    return values


def root_numerators(kernel: Kernel, indices, level: int) -> tuple[list[int], int]:
    """Q^level F(o, t) for the level-``level`` tiles t indexed ``indices``,
    and Q: a forward table from the root, no larger than the batch and in
    int64, joined at a split level k to the targets' backward bands on the
    levels k .. k + R - 1, where every path has its first tile past k - 1.

    The split level and the forward table come from the whole batch; the
    backward DP and the Python-integer join run ``BLOCK`` targets at a time,
    so past the returned numerators the memory does not grow with the batch.
    """
    d, q, radius = kernel.realization.degree, kernel.scale, kernel.radius
    targets = np.asarray(indices, dtype=index_dtype(d, level))
    k = 0
    while (k < level and d ** (k + 1) <= len(targets)
           and value_dtype(q ** (k + radius)) is np.int64):
        k += 1
    dtype = value_dtype(q**level)
    dense = {}
    for l, (cells, values) in _forward(kernel, ROOT, k).items():
        if l >= k:
            dense[l] = np.zeros(d**l, dtype=dtype)
            dense[l][cells.astype(np.int64)] = values
    nums: list[int] = []
    for a in range(0, len(targets), BLOCK):
        block = targets[a:a + BLOCK]
        total = np.zeros(len(block), dtype=dtype)
        for l, lo, band in _backward(kernel, level, block, k):
            if l in dense:
                ancestors = (lo[:, None] + np.arange(band.shape[1])) % d**l
                total += (dense[l][ancestors.astype(np.int64)] * band).sum(axis=1)
        nums += total.tolist()
    return nums, q


def green_value(kernel: Kernel, u: Word, v: Word) -> Fraction:
    """F(u, v) for a single pair."""
    if v.level <= u.level:
        return Fraction(int(u == v))
    return hitting_vector(kernel, v).get(u, Fraction(0))


def brute_force_hitting(kernel: Kernel, source: Word, max_level: int) -> dict[Word, Fraction]:
    """Independent oracle for green_table: enumerate every path from the
    source explicitly (depth-first) and sum the products of transition
    probabilities by endpoint.  Exponential; test scales only."""
    totals: dict[Word, Fraction] = {source: Fraction(1)}

    def walk(u: Word, weight: Fraction):
        for w, p in kernel.outgoing(u):
            if p and w.level <= max_level:
                wp = weight * p
                totals[w] = totals.get(w, Fraction(0)) + wp
                if w.level < max_level:
                    walk(w, wp)

    walk(source, Fraction(1))
    return totals


def martin_kernel(green_o: GreenTable, green_u: GreenTable, v: Word) -> Fraction:
    """K(u, v) = F(u, v) / F(o, v) from two precomputed tables."""
    fo = green_o.value(v)
    if fo == 0:
        raise ZeroDivisionError(f"target {v} outside the shadow of {green_o.source}")
    return green_u.value(v) / fo


# -- shadows and neighborhoods ------------------------------------------------

# level -> sorted distinct indices of tiles on that level
Cells = dict[int, np.ndarray]


def _shadow_cells(kernel: Kernel, u: Word, max_level: int) -> Cells:
    """The tiles v with F(u, v) > 0 and |v| <= max_level (u included): the
    support of the forward DP from u."""
    if u.level > max_level:
        raise ValueError("source deeper than max_level")
    return {n: cells for n, (cells, _) in _forward(kernel, u, max_level).items()
            if n <= max_level}


def _words(cells: Cells, degree: int) -> frozenset[Word]:
    return frozenset(Word.from_index(i, n, degree)
                     for n, idx in cells.items() for i in idx.tolist())


def _neighbors(kernel: Kernel, u: Word, max_level: int) -> tuple[Cells, set[Word]]:
    """The truncated shadow of u and the tiles in the level band |u| +/- R
    whose truncated shadows meet it.

    Every tile has a positive transition at most R levels down, so two
    shadows truncated at L that meet also meet on the levels (L - R, L].
    The tiles whose shadows meet u's are therefore the support, in the
    level band, of the backward DP from u's shadow on those levels.
    """
    radius, d = kernel.radius, kernel.realization.degree
    shadow = _shadow_cells(kernel, u, max_level)
    lowest, top = max(u.level - radius, 0), min(u.level + radius, max_level)
    meeting: dict[int, set[int]] = {}
    for n, cells in shadow.items():
        if n > max_level - radius:
            for l, lo, band in _backward(kernel, n, cells, lowest):
                if l <= top:
                    rows, cols = np.nonzero(band)
                    meeting.setdefault(l, set()).update(((lo[rows] + cols) % d**l).tolist())
    # one Word per distinct tile: bands repeat tiles over lifts and targets
    return shadow, {Word.from_index(i, l, d) for l, met in meeting.items() for i in met}


@dataclass
class NeighborSet:
    """Truncated shadow of a vertex and its neighborhood: the vertices in
    the level band |u| +/- R whose shadows meet the shadow of u."""

    center: Word
    max_level: int
    shadow: frozenset[Word]
    neighbors: set[Word]
    truncated: bool


def shadow_set(kernel: Kernel, u: Word, max_level: int) -> frozenset[Word]:
    """All v with F(u, v) > 0, up to max_level (u included)."""
    return _words(_shadow_cells(kernel, u, max_level), kernel.realization.degree)


def shadow_and_neighbors(kernel: Kernel, u: Word, max_level: int) -> NeighborSet:
    """Shadow by the forward DP; neighbors by the backward DP from its
    deepest R levels, within the level band given by the kernel radius."""
    shadow, neighbors = _neighbors(kernel, u, max_level)
    return NeighborSet(u, max_level, _words(shadow, kernel.realization.degree), neighbors,
                       u.level + kernel.radius > max_level)


def _hull(cells: Cells, degree: int, top: int) -> TileInterval:
    """``arc_hull`` of the tiles of ``cells`` (levels <= top) on integer arcs
    at the common denominator d^top: the circle less the largest gap between
    the merged tiles, the first in circle order on ties and the gap across 0
    last."""
    big = degree**top
    starts = np.concatenate([idx * degree ** (top - n) for n, idx in cells.items()])
    ends = np.concatenate([(idx + 1) * degree ** (top - n) for n, idx in cells.items()])
    order = np.argsort(starts)
    starts, covered = starts[order], np.maximum.accumulate(ends[order])
    # gap k ends where tile k + 1 starts; the last gap wraps across 0
    gaps = np.append(starts[1:] - covered[:-1], big - covered[-1] + starts[0])
    k = int(np.argmax(gaps))
    if gaps[k] <= 0:
        return TileInterval(Fraction(0), Fraction(1))
    lo = Fraction(int(starts[(k + 1) % len(starts)]), big)
    return TileInterval(lo, lo + Fraction(int(big - gaps[k]), big))


def shadow_hull(kernel: Kernel, u: Word, max_level: int) -> TileInterval:
    """Smallest arc containing every tile of the truncated shadow of u."""
    return _hull(_shadow_cells(kernel, u, max_level), kernel.realization.degree, max_level)


# -- multiplicativity ---------------------------------------------------------


@dataclass
class MultiplicativeReport:
    """Exact evaluation of the two-sided near-multiplicativity of F:
    F(v,s) F(s,w) <= F(v,w) <= sum over t in N(u) of F(v,t) F(t,w)."""

    v: Word
    s: Word
    u: Word
    w: Word
    lower: Fraction        # F(v,s) F(s,w)
    middle: Fraction       # F(v,w)
    upper: Fraction        # neighbor sum
    lower_holds: bool
    upper_holds: bool
    precondition_ok: bool
    detail: str = ""

    @property
    def holds(self) -> bool:
        return self.lower_holds and self.upper_holds


def multiplicative_reports(kernel: Kernel, quadruples: Sequence[tuple[Word, Word, Word, Word]],
                           vectors: dict[Word, dict[Word, Fraction]]) -> list[MultiplicativeReport]:
    """``check_multiplicative`` on each (v, s, u, w) of ``quadruples``, with
    ``vectors[w]`` the ``hitting_vector`` of w.

    Each exact object is built once for the whole list: the neighborhood of
    each distinct (u, truncation level), and one forward DP from each
    distinct v, run to the deepest level its quadruples read (s and the
    neighbors).  F(v, s) and F(v, t) are read off that DP's sorted cells.
    """
    d, q, radius = kernel.realization.degree, kernel.scale, kernel.radius

    def near(u: Word, w: Word) -> tuple[Word, int]:
        # truncation deep enough that every true shadow intersection is visible
        return u, max(u.level + radius + 4, w.level)

    neighbors = {key: _neighbors(kernel, *key)[1]
                 for key in {near(u, w) for _, _, u, w in quadruples}}
    stops: dict[Word, int] = {}
    for v, s, u, w in quadruples:
        stops[v] = max(stops.get(v, v.level), s.level, *(t.level for t in neighbors[near(u, w)]))
    forward = {v: _forward(kernel, v, stop) for v, stop in stops.items()}

    def from_v(v: Word, t: Word) -> Fraction:
        # F(v, t) for |t| <= stops[v], where the forward DP is exact
        if t.level in forward[v]:
            cells, nums = forward[v][t.level]
            i = int(np.searchsorted(cells, t.index(d)))
            if i < len(cells) and cells[i] == t.index(d):
                return Fraction(int(nums[i]), q ** (t.level - v.level))
        return Fraction(0)

    reports = []
    for v, s, u, w in quadruples:
        vec_w = vectors[w]
        f_vw, f_uw, f_sw = (vec_w.get(x, Fraction(0)) for x in (v, u, s))
        pre_ok = v.level <= u.level and f_uw > 0
        upper = sum((from_v(v, t) * vec_w[t] for t in neighbors[near(u, w)] if t in vec_w),
                    Fraction(0))
        lower = from_v(v, s) * f_sw
        reports.append(MultiplicativeReport(
            v=v, s=s, u=u, w=w,
            lower=lower, middle=f_vw, upper=upper,
            lower_holds=lower <= f_vw,
            upper_holds=f_vw <= upper,
            precondition_ok=pre_ok,
            detail="" if pre_ok else "precondition violated: need |v| <= |u| and w in shadow(u)",
        ))
    return reports


def check_multiplicative(kernel: Kernel, v: Word, s: Word, u: Word,
                         w: Word) -> MultiplicativeReport:
    """Evaluate both inequalities in exact rationals.

    F(v, w), F(u, w), F(s, w) and every F(t, w) come from one backward DP,
    the hitting vector of w; F(v, s) and every F(v, t) from one forward DP
    from v; N(u) is read off the backward DP from the deepest levels of
    u's shadow, the support of the forward DP from u.  Preconditions (|v| <= |u|, w in the shadow of u) are
    reported, never silently assumed.
    """
    return multiplicative_reports(kernel, [(v, s, u, w)], {w: hitting_vector(kernel, w)})[0]


# -- Martin traces ------------------------------------------------------------

# sup-norm change of the normalized window vectors under which a trace
# counts as converged
CONVERGENCE_TOLERANCE = 1e-9


@dataclass
class MartinTrace:
    """Martin-kernel window vectors along a ray of tiles converging to a
    boundary point.

    ``vectors[k][w]`` is the exact rational K(w, ray[k]).  ``converged``
    says whether the last two vectors, each normalized by its max entry,
    differ by less than ``CONVERGENCE_TOLERANCE`` in sup norm.  ``limit``
    holds the Aitken-extrapolated limit of the vectors normalized by the
    ray's own column at the window level (exact for two-term geometric
    tails, which is the generic structure here); ``growth`` is the
    extrapolated ratio K(c_{w+1}, v_n) / K(c_w, v_n) between consecutive
    window levels of the ray column.
    """

    target_point: Fraction
    ray_offset: int
    ray: list[Word]
    window: list[Word]
    vectors: list[dict[Word, Fraction]]
    window_level: int
    converged: bool
    limit: dict[Word, Fraction] | None
    limit_anchor: Word | None
    growth: Fraction | None
    final_sup_difference: float


def aitken_limit(seq: Sequence[Fraction]) -> Fraction:
    """Aitken delta-squared extrapolation of three terms; exact for
    sequences of the form A + B q^n."""
    r0, r1, r2 = seq
    denom = r2 - 2 * r1 + r0
    if denom == 0:
        return r2
    return r2 - (r2 - r1) ** 2 / denom


def ray_word(xi: Fraction, level: int, offset: int, degree: int = 2) -> Word:
    """The level-n tile indexed floor(xi * d^n) + offset (mod d^n).

    For d-adic xi the base index is the tile to the right of xi, so offsets
    -1 and 0 name the two one-sided tiles at xi and -2/+1 their neighbors.
    """
    scaled = Fraction(xi) * degree**level
    base = math.floor(scaled)
    return Word.from_index(base + offset, level, degree)


def martin_trace(kernel: Kernel, xi: Fraction, window_level: int, n_max: int,
                 ray_offset: int = 0) -> MartinTrace:
    """Trace the Martin kernel along the ray of ``ray_offset``-shifted tiles
    containing (or adjacent to) xi, from the window level down to n_max.

    The window consists of the tile columns through xi at ``window_level``
    and ``window_level + 1``, offsets -1, 0, 1 (and -2 at a d-adic xi), plus
    the root (whose kernel value is 1 by definition, a useful sanity row);
    the ray offset must be one of those columns.
    """
    return _martin_traces(kernel, Fraction(xi), window_level, n_max, (ray_offset,))[0]


def martin_traces(kernel: Kernel, xi: Fraction, window_level: int,
                  n_max: int) -> list[MartinTrace]:
    """Traces along every relevant one-sided ray: the four columns around a
    d-adic point, or the containing column for an interior point."""
    return _martin_traces(kernel, Fraction(xi), window_level, n_max, None)


def _martin_traces(kernel: Kernel, xi: Fraction, window_level: int, n_max: int,
                   ray_offsets: Sequence[int] | None) -> list[MartinTrace]:
    """``martin_trace`` for each of ``ray_offsets`` (None: those of
    ``martin_traces``): one backward DP per ray level from the tiles of every
    ray at once, whose bands are folded mod d^l at the window tiles' indices
    only."""
    d, q = kernel.realization.degree, kernel.scale
    if n_max > kernel.depth_limit:
        raise ValueError("n_max beyond kernel depth limit")
    if n_max < window_level + 4:
        raise ValueError("n_max too shallow: need at least window_level + 4")
    dyadic = (xi * d**window_level).denominator == 1
    offsets = (-2, -1, 0, 1) if dyadic else (-1, 0, 1)
    if ray_offsets is None:
        ray_offsets = offsets if dyadic else (0,)
    for off in ray_offsets:
        if off not in offsets:
            raise ValueError(f"ray_offset {off} is no window column at xi = {xi}: "
                             f"allowed offsets are {', '.join(map(str, offsets))}")
    window: list[Word] = [ROOT]
    for wl in (window_level, window_level + 1):
        for off in offsets:
            window.append(ray_word(xi, wl, off, d))
    columns: dict[int, list[Word]] = {}
    for w in dict.fromkeys(window):
        columns.setdefault(w.level, []).append(w)
    at = {l: np.array([w.index(d) for w in ws], dtype=index_dtype(d, l))
          for l, ws in columns.items()}

    levels = range(window_level + 2, n_max + 1)
    rays = [[ray_word(xi, n, off, d) for n in levels] for off in ray_offsets]
    # numerators[p][k][w]: Q^(n - |w|) F(w, v) for v the level-n tile of ray p
    numerators: list[list[dict[Word, int]]] = [[] for _ in ray_offsets]
    for k, n in enumerate(levels):
        targets = np.array([ray[k].index(d) for ray in rays], dtype=index_dtype(d, n))
        read = {}
        for l, lo, band in _backward(kernel, n, targets, 0):
            if l in at:
                # F(w, v) sums the band over the lifts of w
                cover = (lo[:, None] + np.arange(band.shape[1])) % d**l
                read[l] = (band[:, :, None] * (cover[:, :, None] == at[l])).sum(axis=1).tolist()
        for p, nums in enumerate(numerators):
            nums.append({w: read[l][p][j] if l in read else 0
                         for l, ws in columns.items() for j, w in enumerate(ws)})

    traces = []
    for off, ray, nums in zip(ray_offsets, rays, numerators):
        vectors: list[dict[Word, Fraction]] = []
        for v, num in zip(ray, nums):
            if not num[ROOT]:
                raise ZeroDivisionError(f"target {v} outside the shadow of the root")
            # K(w, v) = F(w, v) / F(o, v)
            vectors.append({w: Fraction(num[w] * q**w.level, num[ROOT]) for w in window})
        traces.append(_trace(xi, window_level, off, ray, window, vectors, d))
    return traces


def _trace(xi: Fraction, window_level: int, ray_offset: int, ray: list[Word],
           window: list[Word], vectors: list[dict[Word, Fraction]], d: int) -> MartinTrace:
    """The trace of one ray from its window vectors: convergence, Aitken
    limit and growth."""
    # convergence flag on vectors normalized by their max entry; there are at
    # least three vectors (``_martin_traces`` needs n_max >= window_level + 4)
    last, prev = vectors[-1], vectors[-2]
    m_last, m_prev = max(last.values()), max(prev.values())
    sup_diff = max(abs(float(last[w] / m_last) - float(prev[w] / m_prev)) for w in window)
    converged = sup_diff < CONVERGENCE_TOLERANCE

    # Extrapolated limit of the vectors normalized by an anchor column.
    # The ray's own column is tried first: when it carries the dominant
    # asymptotics the anchored ratios are exact two-term geometric sequences
    # and Aitken recovers the limit exactly.  If the anchored differences
    # fail to contract (the anchor dies relative to another direction), the
    # dominant window column at the deepest level takes over.
    anchor = ray_word(xi, window_level, ray_offset, d)
    dominant = max((w for w in window if not w.is_root()),
                   key=lambda w: vectors[-1][w])
    limit: dict[Word, Fraction] | None = None
    limit_anchor: Word | None = None
    for candidate in (anchor, dominant):
        if any(vec[candidate] == 0 for vec in vectors[-3:]):
            continue
        ratios = {w: [vec[w] / vec[candidate] for vec in vectors[-3:]]
                  for w in window}
        if all(abs(seq[2] - seq[1]) <= abs(seq[1] - seq[0])
               for seq in ratios.values()):
            limit = {w: aitken_limit(seq) for w, seq in ratios.items()}
            limit_anchor = candidate
            break

    anchor_up = ray_word(xi, window_level + 1, ray_offset, d)
    growth: Fraction | None = None
    if all(vec[anchor] != 0 for vec in vectors[-3:]):
        seq = [vec[anchor_up] / vec[anchor] for vec in vectors[-3:]]
        if abs(seq[2] - seq[1]) <= abs(seq[1] - seq[0]):
            growth = aitken_limit(seq)

    return MartinTrace(
        target_point=xi,
        ray_offset=ray_offset,
        ray=ray,
        window=window,
        vectors=vectors,
        window_level=window_level,
        converged=converged,
        limit=limit,
        limit_anchor=limit_anchor,
        growth=growth,
        final_sup_difference=sup_diff,
    )


# -- doubling boundary classification ----------------------------------------


@dataclass
class RatioMap:
    """One of the four Moebius interval maps driving the ratio
    Lambda_n = K(x_n)/K(y_n) backward along a ray, together with its exact
    derivative extrema on [0,1]."""

    label: int
    num: tuple[Fraction, Fraction]      # (a, b): t -> (a t + b) / (c t + e)
    den: tuple[Fraction, Fraction]

    def __call__(self, t: Fraction) -> Fraction:
        a, b = self.num
        c, e = self.den
        return (a * t + b) / (c * t + e)

    def derivative(self, t: Fraction) -> Fraction:
        a, b = self.num
        c, e = self.den
        return (a * e - b * c) / (c * t + e) ** 2

    def derivative_sup(self) -> Fraction:
        # Moebius derivative is monotone on [0,1]: extremum at an endpoint
        return max(self.derivative(Fraction(0)), self.derivative(Fraction(1)))


def ratio_maps(x: Fraction) -> list[RatioMap]:
    """The maps F_0..F_3 in terms of z = x/y, (x, y) = ``doubling_weights(x)``."""
    x, y = doubling_weights(x)
    z = x / y
    one = Fraction(1)
    return [
        RatioMap(0, (Fraction(1, 2), Fraction(1, 2)), (Fraction(0), one)),
        RatioMap(1, (one, Fraction(0)), (1 - z, z + 1)),
        RatioMap(2, (one / (1 + z), z / (1 + z)), (Fraction(0), one)),
        RatioMap(3, (z, Fraction(0)), (z - 1, Fraction(2))),
    ]


def contraction_bound(x: Fraction) -> Fraction:
    """Per-map derivative bound max over
    {1/2, max((z+1)/4, 1/(1+z)), 1/(1+z), max(z/4, 2z/(1+z)^2)}.

    This is the bound the acceptance suite pins.  Its z/4 entry undershoots
    the true supremum of the fourth map's derivative (z/2, attained at
    t = 0 when z > 1); ``derivative_supremum`` reports the exact value.
    Both stay below 1 exactly when x < 2/5.
    """
    x, y = doubling_weights(x)
    z = x / y
    return max(
        Fraction(1, 2),
        max((z + 1) / 4, 1 / (1 + z)),
        1 / (1 + z),
        max(z / 4, 2 * z / (1 + z) ** 2),
    )


def derivative_supremum(x: Fraction) -> Fraction:
    """Exact max over j of sup on [0,1] of F_j'."""
    return max(m.derivative_sup() for m in ratio_maps(x))


def iterate_interval(x: Fraction, labels: Iterable[int]) -> Fraction:
    """Exact length of F_{j1} o ... o F_{jn}([0,1]); the maps are increasing
    so images are tracked by their endpoints."""
    maps = ratio_maps(x)
    lo, hi = Fraction(0), Fraction(1)
    for j in labels:
        lo, hi = maps[j](lo), maps[j](hi)
    return hi - lo


@dataclass
class EigenData:
    """Spectral data of the 3x3 ray-transition matrix [[x,0,0],[x,y,y],[0,y,y]]
    and of its 4x4 dyadic-point analogue."""

    eigenvalues: tuple[Fraction, Fraction, Fraction]          # x, 2y, 0
    dyadic_top_eigenvector: tuple[int, int, int, int]


@dataclass
class BoundaryClassification:
    """Verdict for the boundary map of the doubling family at parameter x:
    below 2/5 a homeomorphism, above it not injective, critical at 2/5."""

    x: Fraction
    verdict: str                      # homeomorphism | non_injective | critical
    eigen_data: EigenData
    contraction: Fraction             # quoted per-map derivative bound
    derivative_sup: Fraction          # true sup of the map derivatives
    ray_ratio_limit: tuple[Fraction, Fraction, Fraction]   # (5x-2, 4x-1, 1-x)
    side_ray_growth: Fraction         # 1/(2y) = 3/(2(1-x))


class ClassificationInvariantError(ValueError):
    """The threshold verdict contradicts the exact contraction data."""


def classify_doubling_boundary(x: Fraction) -> BoundaryClassification:
    """Classify via the threshold x = 2/5 (x vs 2y), with the supporting
    spectral and contraction data computed exactly."""
    x, y = doubling_weights(x)
    if x > 2 * y:
        verdict = "non_injective"
    elif x < 2 * y:
        verdict = "homeomorphism"
    else:
        verdict = "critical"

    eigen = EigenData(
        eigenvalues=(x, 2 * y, Fraction(0)),
        dyadic_top_eigenvector=(0, 1, 1, 0),
    )
    contraction = contraction_bound(x)
    sup = derivative_supremum(x)
    if verdict == "homeomorphism" and not (contraction < 1 and sup < 1):
        raise ClassificationInvariantError(
            f"x = {x} classified homeomorphism but contraction {contraction} "
            f"and derivative sup {sup} are not both < 1")
    return BoundaryClassification(
        x=x,
        verdict=verdict,
        eigen_data=eigen,
        contraction=contraction,
        derivative_sup=sup,
        ray_ratio_limit=(5 * x - 2, 4 * x - 1, 1 - x),
        side_ray_growth=1 / (2 * y),
    )


# -- export -------------------------------------------------------------------


def write_green_table(table: GreenTable, out: TextIO) -> int:
    """Rows (source, target, p, q) with F = p/q reduced, sorted by
    (level, index)."""
    rows = sorted(table.values.items(), key=lambda kv: (kv[0].level, kv[0].symbols))
    for w, f in rows:
        out.write(f"{table.source}\t{w}\t{f.numerator}\t{f.denominator}\n")
    return len(rows)
