"""Symbolic words over a Markov partition and the degree-d circle realization.

Words are finite admissible symbol strings; each word names a tile, a closed
d-adic interval of the circle R/Z.  All tile arithmetic is exact: single
queries use Fractions (``TileInterval``, ``arcs_diameter``), and the
intersection test and the batched tile-pair diameters use integer arcs at a
common denominator d**m, so no decision touches floating point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class Word:
    """A vertex of the tile graph: an admissible string of partition symbols.

    The empty word is the root ``o`` and stands for the whole space.  The
    level of a word is its length.
    """

    symbols: tuple[int, ...] = ()

    @property
    def level(self) -> int:
        return len(self.symbols)

    def is_root(self) -> bool:
        return not self.symbols

    @classmethod
    def from_index(cls, index: int, level: int, degree: int) -> "Word":
        """Word whose symbols are the base-``degree`` digits of ``index``."""
        if level == 0:
            return ROOT
        index %= degree**level
        digits = []
        for _ in range(level):
            index, r = divmod(index, degree)
            digits.append(r)
        return cls(tuple(reversed(digits)))

    def index(self, degree: int) -> int:
        """Integer whose base-``degree`` digits are the symbols."""
        i = 0
        for s in self.symbols:
            i = i * degree + s
        return i

    def __str__(self) -> str:
        if not self.symbols:
            return "o"
        return "".join(str(s) for s in self.symbols)


ROOT = Word(())


def parse_word(text: str) -> Word:
    """Inverse of ``str(word)``; accepts ``o`` for the root."""
    text = text.strip()
    if text in ("", "o"):
        return ROOT
    if not text.isdigit():
        raise ValueError(f"not a word: {text!r}")
    return Word(tuple(int(c) for c in text))


def shift(u: Word) -> Word:
    """Drop the first symbol; words of level <= 1 go to the root."""
    if u.level <= 1:
        return ROOT
    return Word(u.symbols[1:])


def parent(u: Word) -> Word:
    """Drop the last symbol; the root is its own parent."""
    if u.is_root():
        return ROOT
    return Word(u.symbols[:-1])


@dataclass(frozen=True)
class SftMatrix:
    """Boolean transition matrix of a one-sided subshift of finite type."""

    entries: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise ValueError("transition matrix must be square")
            if not any(row):
                raise ValueError("every state needs at least one successor")

    @classmethod
    def full_shift(cls, n_states: int) -> "SftMatrix":
        row = tuple(True for _ in range(n_states))
        return cls(tuple(row for _ in range(n_states)))

    def is_full(self) -> bool:
        return all(all(row) for row in self.entries)


@dataclass(frozen=True)
class TileInterval:
    """Closed arc [lo, hi] on the circle R/Z with d-adic endpoints.

    ``hi`` may exceed 1 when the arc crosses the point 0 == 1, in which case
    ``wraps`` is set.  Level-n tiles have width d**-n; the root tile is the
    whole circle.
    """

    lo: Fraction
    hi: Fraction

    @property
    def wraps(self) -> bool:
        return self.hi > 1

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2 % 1

    def contains_point(self, x: Fraction) -> bool:
        """Membership of x (mod 1) in the closed arc."""
        if self.width >= 1:
            return True
        t = (Fraction(x) - self.lo) % 1
        return t <= self.width

    def intersects(self, other: "TileInterval") -> bool:
        """Closed arcs meet (exact rational test, wraparound respected)."""
        if self.width >= 1 or other.width >= 1:
            return True
        return ((other.lo - self.lo) % 1 <= self.width
                or (self.lo - other.lo) % 1 <= other.width)

    def distance(self, other: "TileInterval") -> Fraction:
        """Shortest arc distance between the two closed arcs (0 if they meet)."""
        if self.intersects(other):
            return Fraction(0)
        # gap going forward from self.hi to other.lo, and the reverse gap
        g1 = (other.lo - self.hi) % 1
        g2 = (self.lo - other.hi) % 1
        return min(g1, g2)

    def neighborhood(self, r: Fraction) -> "TileInterval":
        """The closed r-neighborhood B(A, r) as an arc."""
        if self.width + 2 * r >= 1:
            return TileInterval(Fraction(0), Fraction(1))
        lo = (self.lo - r) % 1
        return TileInterval(lo, lo + self.width + 2 * r)

    def contains_arc(self, other: "TileInterval") -> bool:
        if self.width >= 1:
            return True
        if other.width > self.width:
            return False
        return (other.lo - self.lo) % 1 + other.width <= self.width


def _circle_gaps(arcs: list[TileInterval]) -> list[tuple[Fraction, Fraction]]:
    """Open complementary gaps of a union of closed arcs, as (start, end) with
    start < end <= start + 1; empty when the union covers the circle."""
    segments: list[tuple[Fraction, Fraction]] = []
    for a in arcs:
        if a.width >= 1:
            return []
        lo = a.lo % 1
        hi = lo + a.width
        if hi <= 1:
            segments.append((lo, hi))
        else:
            segments.append((lo, Fraction(1)))
            segments.append((Fraction(0), hi - 1))
    segments.sort()
    merged = [segments[0]]
    for lo, hi in segments[1:]:
        mlo, mhi = merged[-1]
        if lo <= mhi:
            merged[-1] = (mlo, max(mhi, hi))
        else:
            merged.append((lo, hi))
    gaps = [(a[1], b[0]) for a, b in zip(merged, merged[1:])]
    ends_joined = merged[0][0] == 0 and merged[-1][1] == 1
    if not ends_joined and merged[-1][1] < merged[0][0] + 1:
        gaps.append((merged[-1][1], merged[0][0] + 1))
    return gaps


def arc_hull(arcs: list[TileInterval]) -> TileInterval:
    """Smallest closed arc containing all given arcs.

    The hull is the complement of the largest gap; if the arcs leave no gap
    the whole circle is returned.
    """
    if not arcs:
        raise ValueError("empty arc list")
    gaps = _circle_gaps(arcs)
    if not gaps:
        return TileInterval(Fraction(0), Fraction(1))
    gap_start, gap_end = max(gaps, key=lambda g: g[1] - g[0])
    lo = gap_end % 1
    return TileInterval(lo, lo + (1 - (gap_end - gap_start)))


def arcs_diameter(arcs: list[TileInterval]) -> Fraction:
    """Diameter of a union of at most two closed arcs in the arc metric.

    If the largest complementary gap has length g >= 1/2 the union fits in an
    arc of length 1-g, which is its diameter; otherwise the union of two
    closed arcs always contains an antipodal pair, so the diameter is 1/2.
    """
    if len(arcs) > 2:
        raise ValueError("diameter formula only valid for <= 2 arcs")
    hull = arc_hull(arcs)
    if hull.width <= Fraction(1, 2):
        return hull.width
    return Fraction(1, 2)


class CircleRealization:
    """The degree-d covering map x -> d*x mod 1 with its standard partition.

    The partition tiles are [k/d, (k+1)/d]; the induced subshift is the full
    shift on d symbols, and level-n words name the d-adic intervals
    [i/d**n, (i+1)/d**n].  The visual parameter is a = log d.
    """

    def __init__(self, degree: int):
        if degree < 2:
            raise ValueError("degree must be >= 2")
        self.degree = degree

    @property
    def visual_parameter(self) -> float:
        return math.log(self.degree)

    def __eq__(self, other):
        return isinstance(other, CircleRealization) and other.degree == self.degree

    def __hash__(self):
        return hash(("CircleRealization", self.degree))

    def __repr__(self):
        return f"CircleRealization(degree={self.degree})"


def enumerate_level(realization: CircleRealization, n: int) -> list[Word]:
    """All words of length n, lexicographically: the d**n digit strings of
    the level-n tiles, in index order ([ROOT] at level 0)."""
    if n < 0:
        raise ValueError("level must be >= 0")
    return [Word(w) for w in itertools.product(range(realization.degree), repeat=n)]


def tile_of(realization: CircleRealization, u: Word) -> TileInterval:
    """The closed d-adic tile named by u; the root names the whole circle."""
    if u.is_root():
        return TileInterval(Fraction(0), Fraction(1))
    d = realization.degree
    n = u.level
    i = u.index(d)
    return TileInterval(Fraction(i, d**n), Fraction(i + 1, d**n))


def tiles_intersect(realization: CircleRealization, u: Word, v: Word) -> bool:
    """Exact closed-tile intersection test on the circle.

    Boundary-touching tiles count as intersecting, including across the
    wraparound point 0 == 1.  Computed on integer indices at the common
    denominator, so the outcome is bit-stable.
    """
    if u.is_root() or v.is_root():
        return True
    d = realization.degree
    if u.level > v.level:
        u, v = v, u
    n, m = u.level, v.level
    scale = d ** (m - n)
    big = d**m
    a = u.index(d) * scale          # [a, a + scale] vs [b, b + 1] mod big
    b = v.index(d)
    return (b - a) % big <= scale or (a - b) % big <= 1


def tile_arcs(realization: CircleRealization, words: list[Word],
              level: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer arcs ``[start, start + width]`` of the tiles of ``words`` at the
    common denominator d**level (every word of level <= ``level``); the root
    is the whole circle ``[0, d**level]``.

    ``2 * d**level`` must stay below 2**53, so that the arcs, the doubled
    widths of ``pair_diameters`` and their quotients by the denominator are
    exact in int64 and float64.
    """
    d = realization.degree
    if 2 * d**level >= 2**53:
        raise ValueError(f"common denominator {d}**{level} too large for exact arcs")
    if any(u.level > level for u in words):
        raise ValueError(f"tile deeper than the common level {level}")
    width = np.array([d ** (level - u.level) for u in words], dtype=np.int64)
    start = np.array([u.index(d) for u in words], dtype=np.int64) * width
    return start, width


def pair_diameters(start_a, width_a, start_b, width_b, big: int) -> np.ndarray:
    """Arc-metric diameters of the unions A u B of integer arcs on the circle
    Z/big, as numerators over 2*big; broadcasts like numpy arithmetic.

    The smallest arc holding A u B starts where A or B starts: it is the
    shorter of the arc from A's start to the farther of the two ends, and the
    arc from B's start likewise (a width >= big is the whole circle).  That is
    the union when A and B meet, and otherwise the circle less the larger gap.
    The diameter is this hull width capped at half the circle, as in
    ``arcs_diameter``.
    """
    ahead = (start_b - start_a) % big       # B's start, seen from A's start
    behind = (start_a - start_b) % big      # A's start, seen from B's start
    hull = np.minimum(np.maximum(width_a, ahead + width_b),
                      np.maximum(width_b, behind + width_a))
    return np.minimum(2 * hull, big)
