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
  is what Martin traces and path functionals use at depth 20+.

All values are exact rationals.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, TextIO

from .kernels import Kernel
from .symbolic import (
    ROOT,
    TileInterval,
    Word,
    arc_hull,
    tile_of,
)


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

    def support(self, level: int | None = None) -> set[Word]:
        if level is None:
            return set(self.values)
        return {w for w in self.values if w.level == level}


def green_table(kernel: Kernel, source: Word, max_level: int) -> GreenTable:
    """Forward cone DP: F(source, v) = sum_w F(source, w) P(w, v), processed
    in level order; F(source, source) = 1."""
    if source.level > max_level:
        raise ValueError("source deeper than max_level")
    values: dict[Word, Fraction] = {}
    # strict level order: F of a vertex is final once its level is reached,
    # since every transition increases the level
    by_level: dict[int, dict[Word, Fraction]] = {source.level: {source: Fraction(1)}}
    for level in range(source.level, max_level + 1):
        band = by_level.pop(level, None)
        if not band:
            continue
        values.update(band)
        if level == max_level:
            break
        for u, fu in band.items():
            for w, p in kernel.outgoing(u):
                if p and w.level <= max_level:
                    tier = by_level.setdefault(w.level, {})
                    tier[w] = tier.get(w, Fraction(0)) + fu * p
    return GreenTable(source, max_level, values)


def hitting_vector(kernel: Kernel, target: Word) -> dict[Word, Fraction]:
    """Backward cone DP: F(u, target) for every u with F > 0 (plus the
    root), keyed by u.  Exact rationals."""
    values: dict[Word, Fraction] = {target: Fraction(1)}
    by_level: dict[int, set[Word]] = {target.level: {target}}
    for level in range(target.level - 1, -1, -1):
        # candidates: predecessors of reached vertices within the step radius
        cands: set[Word] = set()
        for deeper in range(level + 1, min(level + kernel.radius, target.level) + 1):
            for w in by_level.get(deeper, ()):
                cands.update(u for u in kernel.predecessors(w) if u.level == level)
        tier: set[Word] = set()
        for u in cands:
            fu = Fraction(0)
            for w, p in kernel.outgoing(u):
                fw = values.get(w)
                if fw is not None and p:
                    fu += p * fw
            if fu:
                values[u] = fu
                tier.add(u)
        if tier:
            by_level[level] = tier
    return values


def green_value(kernel: Kernel, u: Word, v: Word) -> Fraction:
    """F(u, v) for a single pair."""
    if u == v:
        return Fraction(1)
    if v.level <= u.level:
        return Fraction(0)
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


@dataclass
class NeighborSet:
    """Truncated shadow of a vertex and its neighborhood: the vertices in
    the level band |u| +/- R whose shadows meet the shadow of u."""

    center: Word
    max_level: int
    shadow: frozenset[Word]
    neighbors: set[Word]
    truncated: bool


# distinct (kernel, vertex, level) queries whose shadows shadow_set keeps;
# the checks command on the reference scenario makes 198
SHADOW_LRU_SIZE = 256
_shadows: OrderedDict[tuple, frozenset[Word]] = OrderedDict()


def shadow_set(kernel: Kernel, u: Word, max_level: int) -> frozenset[Word]:
    """All v with F(u, v) > 0, up to max_level (u included).  The answers
    to the last ``SHADOW_LRU_SIZE`` distinct queries are kept."""
    key = (kernel, u, max_level)
    if key in _shadows:
        _shadows.move_to_end(key)
    else:
        _shadows[key] = frozenset(green_table(kernel, u, max_level).values)
        if len(_shadows) > SHADOW_LRU_SIZE:
            _shadows.popitem(last=False)
    return _shadows[key]


def shadow_and_neighbors(kernel: Kernel, u: Word, max_level: int) -> NeighborSet:
    """Shadow by forward DP; neighbors by truncated shadow intersection
    within the level band given by the kernel radius."""
    radius = kernel.radius
    truncated = u.level + radius > max_level
    shadow = shadow_set(kernel, u, max_level)
    d = kernel.realization.degree
    neighbors: set[Word] = set()
    for level in range(max(u.level - radius, 0), min(u.level + radius, max_level) + 1):
        if level == 0:
            candidates = [ROOT]
        else:
            # only vertices whose tile sits near u's tile can share shadow
            center = u.index(d) * d**level // d ** u.level if u.level else 0
            span = 3 * max(int(kernel.radius), 1) + int(getattr(kernel, "reach", 0)) + 2
            candidates = [Word.from_index(i, level, d)
                          for i in range(center - span, center + span + 1)]
            if d**level <= 2 * span + 1:
                candidates = [Word.from_index(i, level, d) for i in range(d**level)]
        for v in set(candidates):
            if shadow & shadow_set(kernel, v, max_level):
                neighbors.add(v)
    return NeighborSet(u, max_level, shadow, neighbors, truncated)


def shadow_hull(kernel: Kernel, u: Word, max_level: int) -> TileInterval:
    """Smallest arc containing every tile of the truncated shadow of u."""
    realization = kernel.realization
    tiles = [tile_of(realization, w) for w in shadow_set(kernel, u, max_level)]
    return arc_hull(tiles)


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


def check_multiplicative(kernel: Kernel, v: Word, s: Word, u: Word, w: Word,
                         max_level: int | None = None) -> MultiplicativeReport:
    """Evaluate both inequalities in exact rationals.

    Preconditions (|v| <= |u|, w in the shadow of u) are reported, never
    silently assumed.
    """
    max_level = max_level if max_level is not None else w.level
    vec_w = hitting_vector(kernel, w)
    f_vw = vec_w.get(v, Fraction(0))
    f_uw = vec_w.get(u, Fraction(1) if u == w else Fraction(0))
    f_sw = vec_w.get(s, Fraction(1) if s == w else Fraction(0))
    f_vs = green_value(kernel, v, s) if s != v else Fraction(1)

    pre_ok = v.level <= u.level and (f_uw > 0 or u == w)
    detail = "" if pre_ok else "precondition violated: need |v| <= |u| and w in shadow(u)"

    # truncation deep enough that every true shadow intersection is visible
    nbhd = shadow_and_neighbors(kernel, u, max(u.level + kernel.radius + 4, w.level))
    upper = Fraction(0)
    for t in nbhd.neighbors:
        f_vt = green_value(kernel, v, t) if t != v else Fraction(1)
        if not f_vt:
            continue
        f_tw = vec_w.get(t, Fraction(1) if t == w else Fraction(0))
        upper += f_vt * f_tw

    lower = f_vs * f_sw
    return MultiplicativeReport(
        v=v, s=s, u=u, w=w,
        lower=lower, middle=f_vw, upper=upper,
        lower_holds=lower <= f_vw,
        upper_holds=f_vw <= upper,
        precondition_ok=pre_ok,
        detail=detail,
    )


# -- Martin traces ------------------------------------------------------------


@dataclass
class MartinTrace:
    """Martin-kernel window vectors along a ray of tiles converging to a
    boundary point.

    ``vectors[k][w]`` is the exact rational K(w, ray[k]).  ``limit`` holds
    the Aitken-extrapolated limit of the vectors normalized by the ray's own
    column at the window level (exact for two-term geometric tails, which is
    the generic structure here); ``growth`` is the extrapolated ratio
    K(c_{w+1}, v_n) / K(c_w, v_n) between consecutive window levels of the
    ray column.
    """

    target_point: Fraction
    ray_offset: int
    ray: list[Word]
    window: list[Word]
    vectors: list[dict[Word, Fraction]]
    window_level: int
    converged: bool
    tolerance: float
    limit: dict[Word, Fraction] | None
    limit_anchor: Word | None
    growth: Fraction | None
    final_sup_difference: float

    def normalized(self, k: int) -> dict[Word, float]:
        vec = self.vectors[k]
        top = max(vec.values(), default=Fraction(0))
        if top == 0:
            return {w: 0.0 for w in vec}
        return {w: float(val / top) for w, val in vec.items()}


def _aitken_limit(seq: Sequence[Fraction]) -> Fraction:
    """Aitken delta-squared extrapolation of the last three terms; exact for
    sequences of the form A + B q^n."""
    if len(seq) < 3:
        return seq[-1]
    r0, r1, r2 = seq[-3], seq[-2], seq[-1]
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
                 ray_offset: int = 0, tolerance: float = 1e-9) -> MartinTrace:
    """Trace the Martin kernel along the ray of ``ray_offset``-shifted tiles
    containing (or adjacent to) xi, from the window level down to n_max.

    The window consists of the tile columns through xi at ``window_level``
    and ``window_level + 1`` plus the root (whose kernel value is 1 by
    definition, a useful sanity row).
    """
    xi = Fraction(xi)
    d = kernel.realization.degree
    if n_max > kernel.depth_limit:
        raise ValueError("n_max beyond kernel depth limit")
    if n_max < window_level + 4:
        raise ValueError("n_max too shallow: need at least window_level + 4")
    dyadic = (xi * d**window_level).denominator == 1
    offsets = (-2, -1, 0, 1) if dyadic else (-1, 0, 1)
    window: list[Word] = [ROOT]
    for wl in (window_level, window_level + 1):
        for off in offsets:
            window.append(ray_word(xi, wl, off, d))

    start = window_level + 2
    ray = [ray_word(xi, n, ray_offset, d) for n in range(start, n_max + 1)]
    vectors: list[dict[Word, Fraction]] = []
    for v in ray:
        vec = hitting_vector(kernel, v)
        f_o = vec.get(ROOT)
        if f_o is None:
            raise ZeroDivisionError(f"target {v} outside the shadow of the root")
        vectors.append({w: vec.get(w, Fraction(0)) / f_o for w in window})

    # convergence flag on vectors normalized by their max entry
    sup_diff = math.inf
    if len(vectors) >= 2:
        last = {w: v for w, v in vectors[-1].items()}
        prev = {w: v for w, v in vectors[-2].items()}
        m_last = max(last.values())
        m_prev = max(prev.values())
        sup_diff = max(abs(float(last[w] / m_last) - float(prev[w] / m_prev))
                       for w in window)
    converged = sup_diff < tolerance

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
    if len(vectors) >= 3:
        for candidate in (anchor, dominant):
            if any(vec[candidate] == 0 for vec in vectors[-3:]):
                continue
            ratios = {w: [vec[w] / vec[candidate] for vec in vectors[-3:]]
                      for w in window}
            if all(abs(seq[2] - seq[1]) <= abs(seq[1] - seq[0])
                   for seq in ratios.values()):
                limit = {w: _aitken_limit(seq) for w, seq in ratios.items()}
                limit_anchor = candidate
                break

    anchor_up = ray_word(xi, window_level + 1, ray_offset, d)
    growth: Fraction | None = None
    if len(vectors) >= 3 and all(vec[anchor] != 0 for vec in vectors[-3:]):
        seq = [vec[anchor_up] / vec[anchor] for vec in vectors[-3:]]
        if abs(seq[2] - seq[1]) <= abs(seq[1] - seq[0]):
            growth = _aitken_limit(seq)

    return MartinTrace(
        target_point=xi,
        ray_offset=ray_offset,
        ray=ray,
        window=window,
        vectors=vectors,
        window_level=window_level,
        converged=converged,
        tolerance=tolerance,
        limit=limit,
        limit_anchor=limit_anchor,
        growth=growth,
        final_sup_difference=sup_diff,
    )


def martin_traces(kernel: Kernel, xi: Fraction, window_level: int, n_max: int,
                  tolerance: float = 1e-9) -> list[MartinTrace]:
    """Traces along every relevant one-sided ray: the four columns around a
    d-adic point, or the containing column for an interior point."""
    xi = Fraction(xi)
    d = kernel.realization.degree
    dyadic = (xi * Fraction(d) ** window_level).denominator == 1
    offsets = (-2, -1, 0, 1) if dyadic else (0,)
    return [martin_trace(kernel, xi, window_level, n_max, off, tolerance)
            for off in offsets]


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
    """The maps F_0..F_3 in terms of z = x/y, y = (1-x)/3."""
    x = Fraction(x)
    y = (1 - x) / 3
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
    x = Fraction(x)
    z = x / ((1 - x) / 3)
    return max(
        Fraction(1, 2),
        max((z + 1) / 4, 1 / (1 + z)),
        1 / (1 + z),
        max(z / 4, 2 * z / (1 + z) ** 2),
    )


def derivative_supremum(x: Fraction) -> Fraction:
    """Exact max over j of sup on [0,1] of F_j'."""
    return max(m.derivative_sup() for m in ratio_maps(Fraction(x)))


def iterate_interval(x: Fraction, labels: Iterable[int]) -> Fraction:
    """Exact length of F_{j1} o ... o F_{jn}([0,1]); the maps are increasing
    so images are tracked by their endpoints."""
    maps = ratio_maps(Fraction(x))
    lo, hi = Fraction(0), Fraction(1)
    for j in labels:
        lo, hi = maps[j](lo), maps[j](hi)
    return hi - lo


@dataclass
class EigenData:
    """Spectral data of the 3x3 ray-transition matrix [[x,0,0],[x,y,y],[0,y,y]]
    and of its 4x4 dyadic-point analogue."""

    eigenvalues: tuple[Fraction, Fraction, Fraction]          # x, 2y, 0
    eigenvectors: tuple[tuple[Fraction, ...], ...]
    dyadic_eigenvalues: tuple[Fraction, Fraction, Fraction, Fraction]  # x, 2y, y, 0
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
    x = Fraction(x)
    if not 0 < x < 1:
        raise ValueError("x must lie in (0,1)")
    y = (1 - x) / 3
    if x > 2 * y:
        verdict = "non_injective"
    elif x < 2 * y:
        verdict = "homeomorphism"
    else:
        verdict = "critical"

    eigen = EigenData(
        eigenvalues=(x, 2 * y, Fraction(0)),
        eigenvectors=(
            (5 * x - 2, 4 * x - 1, 1 - x),
            (Fraction(0), Fraction(1), Fraction(1)),
            (Fraction(0), Fraction(-1), Fraction(1)),
        ),
        dyadic_eigenvalues=(x, 2 * y, y, Fraction(0)),
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
