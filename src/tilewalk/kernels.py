"""Transition kernels on tile graphs.

There is one kernel form: a base window of explicit transitions out of the
sources of level <= N0, extended to all depths by shift-equivariance and
compiled once, when the kernel is built, into integer rows.  The
doubling-map family p_x is the base-level-2 table ``doubling_table_spec(x)``.
Probabilities are exact rationals throughout; floating point enters only at
Monte Carlo sampling sites.

A compiled row lists each transition as (level step r, child offset
j - d^r i, probability).  Above the window one row serves every vertex of a
suffix class i mod d^N0, so transitions at arbitrary depth cost a few
integer operations, and path sampling and Green-function dynamic
programming are not limited by the materialized graph truncation (the graph
is needed only for metric validation).  Their positive transitions form one
padded ``RowTable``: the sampler steps with it, the exact DPs with its
per-level-step masked views (``step_tables``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, TextIO

import numpy as np

from .symbolic import (
    ROOT,
    CircleRealization,
    Word,
    parse_word,
    shift,
    tile_of,
)
from .tile_graph import TileGraph, distance_table

DEFAULT_DEPTH_LIMIT = 64


class KernelError(ValueError):
    pass


class LiftAmbiguityError(KernelError):
    """The shift does not map the local window bijectively; extension is
    ill-defined at the reported vertex."""


class LevelOverflowError(KernelError):
    """A transition beyond the kernel's depth limit was requested."""


@dataclass(frozen=True)
class TableSpec:
    """Base window of explicit transitions, extended by shift-equivariance.

    Entries list transitions (source, target, probability) for all sources
    of level <= base_level; targets may sit up to the kernel radius deeper.
    """

    base_level: int
    entries: tuple[tuple[Word, Word, Fraction], ...]


def _arc_gap(lo_a: int, width_a: int, lo_b: int, width_b: int, circle: int) -> int:
    """``TileInterval.distance`` of the closed arcs [lo_a, lo_a + width_a]
    and [lo_b, lo_b + width_b] on a circle of integer length ``circle``, in
    the same integer units."""
    if width_a >= circle or width_b >= circle:
        return 0
    if (lo_b - lo_a) % circle <= width_a or (lo_a - lo_b) % circle <= width_b:
        return 0
    return min((lo_b - lo_a - width_a) % circle, (lo_a - lo_b - width_b) % circle)


def index_dtype(degree: int, max_level: int):
    """int64 when tile indices up to ``max_level``, with one more digit of
    headroom for the step arithmetic, fit; Python integers otherwise."""
    return np.int64 if degree ** (max_level + 1) <= 2**63 else object


def value_dtype(bound: int):
    """int64 when integers up to ``bound`` fit; Python integers otherwise."""
    return np.int64 if bound <= np.iinfo(np.int64).max else object


# paths or targets per array pass of the Monte Carlo pipeline: on a 2 vCPU
# Xeon, seeding 1e5 streams took 0.28 s at 8192 a pass, 0.34 s at 4096
BLOCK = 8192


@dataclass(frozen=True)
class RowTable:
    """A kernel's positive transitions in row order, one padded line per
    compiled row.  Entry c of row k steps its level-n tile indexed i by
    r = ``steps[k, c]`` levels (0 pads) to the tile indexed
    (d^r i + ``offsets[k, c]``) mod d^(n + r), of row ``next_row[k, c]``,
    with weight ``weights[k, c]`` = p Q^r.  ``thresholds[k, c]``, the running
    float sum of p, is what the sampler compares a uniform draw against: inf
    on each row's last entry and on the padding, so every draw lands."""

    degree: int
    steps: np.ndarray
    offsets: np.ndarray
    next_row: np.ndarray
    weights: np.ndarray
    thresholds: np.ndarray


def positive_law(row: Iterable[tuple[Word, Fraction]]) -> dict[Word, Fraction]:
    """The positive masses of an outgoing row, summed per target."""
    law: dict[Word, Fraction] = {}
    for w, p in row:
        if p > 0:
            law[w] = law.get(w, Fraction(0)) + p
    return law


def shift_pushforward(row: Iterable[tuple[Word, Fraction]]) -> dict[Word, Fraction]:
    """The law of sigma w for w drawn from the row, over its positive masses."""
    return positive_law((shift(w), p) for w, p in row)


def _check_rows(rows: dict[Word, list[tuple[Word, Fraction]]]):
    for u, out in rows.items():
        total = sum((p for _, p in out), Fraction(0))
        if total != 1:
            raise KernelError(f"outgoing probabilities at {u} sum to {total}, not 1")
        for w, p in out:
            if p < 0:
                raise KernelError(f"negative probability at {u} -> {w}")
            if w.level <= u.level:
                raise KernelError(f"transition {u} -> {w} does not increase level")


class EquivariantTableKernel:
    """Kernel defined by an explicit base window and extended above it by
    shift-equivariance: for |u| > N0, the outgoing law of u is the unique
    lift of the outgoing law of sigma^(|u|-N0) u into the tiles near u.

    The lift is compiled when the kernel is built: ``rows[row_id(n, i)]``
    lists the transitions out of the level-n tile indexed i as (level step
    r, child offset, probability), the child being the tile indexed
    (d^r i + offset) mod d^(n+r).  The window's rows come first, level by
    level, then one row per suffix class c = i mod d^N0 above the window;
    ``row_tiles[k]`` is a tile of row k, (N0 + 1, c) for a class row.
    ``table`` holds the rows' positive transitions as arrays (``RowTable``).
    """

    def __init__(self, spec: TableSpec, graph: TileGraph | None = None,
                 realization: CircleRealization | None = None,
                 depth_limit: int = DEFAULT_DEPTH_LIMIT):
        if graph is None and realization is None:
            raise KernelError("need a graph or a realization")
        self.graph = graph
        self.realization = realization or graph.realization
        self.base_level = n0 = spec.base_level
        self.depth_limit = depth_limit
        d = self.realization.degree

        window: dict[Word, list[tuple[Word, Fraction]]] = {}
        for u, v, p in spec.entries:
            if u.level > n0:
                raise KernelError(f"window source {u} above base level {n0}")
            if not all(0 <= s < d for s in u.symbols + v.symbols):
                raise KernelError(f"transition {u} -> {v} has a symbol outside 0..{d - 1}")
            window.setdefault(u, []).append((v, p))
        _check_rows(window)
        self.row_tiles = [(n, i) for n in range(n0 + 2) for i in range(d ** min(n, n0))]
        for n, i in self.row_tiles:
            u = Word.from_index(i, n, d)
            if n <= n0 and u not in window:
                raise KernelError(f"base window has no row for {u}")
        self.window = {u: tuple(out) for u, out in window.items()}
        # both over the positive entries: a zero-probability entry is never taken
        self.radius = max(v.level - u.level for u, v, p in spec.entries if p > 0)
        # farthest a window target sits from its source, in units of the
        # source tile width; rules the lift search band and the predecessor span
        self.reach = max(
            (tile_of(self.realization, v).distance(tile_of(self.realization, u))
             * d ** u.level
             for u, v, p in spec.entries if p > 0 and not u.is_root()),
            default=Fraction(0))
        self._check_window_equivariance()
        self.rows = self._compile()
        # Q, the lcm of the row denominators: a step of r levels weighs p Q^r
        self.scale = math.lcm(*(p.denominator for row in self.rows for _, _, p in row))
        # the positive entries of the rows, compiled once into a RowTable
        positive = [[e for e in row if e[2] > 0] for row in self.rows]
        shape = (len(positive), max(len(row) for row in positive))
        steps, offsets, next_row = (np.zeros(shape, dtype=np.int64) for _ in range(3))
        weights = np.zeros(shape, dtype=value_dtype(self.scale**self.radius))
        thresholds = np.full(shape, np.inf)
        for k, ((n, i), row) in enumerate(zip(self.row_tiles, positive)):
            for c, (r, offset, p) in enumerate(row):
                steps[k, c], offsets[k, c] = r, offset
                next_row[k, c] = self.row_id(n + r, d**r * i + offset)
                weights[k, c] = int(p * self.scale**r)
            thresholds[k, :len(row) - 1] = np.cumsum([float(p) for _, _, p in row])[:-1]
        self.table = RowTable(d, steps, offsets, next_row, weights, thresholds)
        # what the forward and backward DPs step with: per level step r, the
        # offsets and weights under the mask of the r-level entries
        self.step_tables = []
        for r in range(1, self.radius + 1):
            mask, dtype = steps == r, value_dtype(self.scale**r)
            # p Q^R may outgrow int64 where p Q^r does not
            self.step_tables.append((offsets, mask, weights if weights.dtype == dtype
                                     else np.where(mask, weights, 0).astype(dtype)))
        # backward-DP offset bounds and stencils, compiled on first use; finitely
        # many.  Kept: a direct gather per step table made root_numerators 4x slower
        self.band_tables: dict = {}

    def _check_window_equivariance(self):
        """The extension is only well-defined if the window itself already
        commutes with the shift (away from the root's preimages)."""
        for u in self.window:
            if u.level < 2:
                continue
            pushed, base = shift_pushforward(self.window[u]), positive_law(self.window[shift(u)])
            if pushed != base:
                raise KernelError(
                    f"base window violates shift-equivariance at {u}: "
                    f"pushforward {pushed} != row {base}")

    def _lift(self, u: Word, w_prime: Word) -> Word:
        """Unique w with sigma^(|u|-N0) w = w_prime and A_w within the
        window's reach of A_u.

        The distance test runs on integers: at the common denominator d^M,
        M = max(|w|, |u|), both tiles are integer arcs of a circle of length
        d^M, and dist(A_w, A_u) <= reach * d^-|u| becomes
        gap * den(reach) <= num(reach) * d^(M - |u|).
        """
        d = self.realization.degree
        n = u.level
        k = n - self.base_level
        m = w_prime.level + k
        top = max(m, n)
        lo_u, width_u = u.index(d) * d ** (top - n), d ** (top - n)
        width_w = d ** (top - m)
        limit = self.reach.numerator * width_u
        block = d ** w_prime.level
        # candidate indices are j' + t*d^|w'|; only t near u's scaled index
        # can fall inside the band
        t0 = (u.index(d) * d ** (m - n)) // block
        matches = []
        for t in (t0 - 1, t0, t0 + 1):
            j = (w_prime.index(d) + (t % d**k) * block) % d**m
            gap = _arc_gap(lo_u, width_u, j * width_w, width_w, d**top)
            if gap * self.reach.denominator <= limit and j not in matches:
                matches.append(j)
        if len(matches) != 1:
            raise LiftAmbiguityError(
                f"lift of {w_prime} over {u} is not unique: "
                f"{[Word.from_index(j, m, d) for j in matches]}")
        return Word.from_index(matches[0], m, d)

    def _compile(self) -> list[tuple[tuple[int, int, Fraction], ...]]:
        """The window's rows, then the class rows, read off ``_lift``.

        Over the level-n tile indexed i, of class c, the lift candidates of
        a window target j' sit at offsets j' - d^r c + t d^(N0+r), |t| <= 1,
        from d^r i, all below 2 d^(N0+r) in size.  Once d^n >= 4 d^N0 + 4
        the circle d^(n+r) is too long for any of them to wrap around, so
        the lift's offset depends on the class alone and one tile per class
        on that level compiles every deeper level.  The levels in between
        are lifted tile by tile, so an ambiguous lift raises here.
        """
        d, n0 = self.realization.degree, self.base_level
        rows = [tuple((w.level - n, w.index(d) - d ** (w.level - n) * i, p)
                      for w, p in self.window[Word.from_index(i, n, d)])
                for n, i in self.row_tiles if n <= n0]

        def lift_row(i: int, n: int):
            # a zero-probability target may sit beyond the reach: not lifted
            u = Word.from_index(i, n, d)
            return [(w.level - n0, self._lift(u, w), p)
                    for w, p in self.window[Word.from_index(i, n0, d)] if p > 0]

        deep = n0 + 1
        while d**deep < 4 * d**n0 + 4:
            deep += 1
        for n in range(n0 + 1, deep):
            for i in range(d**n):
                lift_row(i, n)
        for c in range(d**n0):
            # offsets centred modulo the circle length d^(deep + r)
            rows.append(tuple(
                (r, (w.index(d) - d**r * c + d**w.level // 2) % d**w.level - d**w.level // 2, p)
                for r, w, p in lift_row(c, deep)))
        return rows

    def row_id(self, n: int, i: int) -> int:
        d, n0 = self.realization.degree, self.base_level
        return (d ** min(n, n0 + 1) - 1) // (d - 1) + i % d**n0

    def _targets(self, n: int, i: int) -> list[tuple[int, int, Fraction]]:
        """(level, index, probability) of each transition out of (n, i)."""
        if n + 1 > self.depth_limit:
            raise LevelOverflowError(f"transition past depth limit {self.depth_limit}")
        d = self.realization.degree
        return [(n + r, (d**r * i + offset) % d ** (n + r), p)
                for r, offset, p in self.rows[self.row_id(n, i)]]

    def outgoing(self, u: Word) -> tuple[tuple[Word, Fraction], ...]:
        d = self.realization.degree
        return tuple((Word.from_index(j, m, d), p)
                     for m, j, p in self._targets(u.level, u.index(d)))

    def predecessors(self, v: Word) -> list[Word]:
        """The tiles with a positive transition into v, level by level.

        A window target sits within reach * d^-|u| of its source's tile, so
        a source r levels up is at most int(reach) + 1 tiles from the
        ancestor of v on its level; of those, keep the ones whose step table
        lands on v modulo d^|v|.
        """
        d, m = self.realization.degree, v.level
        j = v.index(d)
        span = int(self.reach) + 1
        found = []
        for r, (offsets, mask, _) in enumerate(self.step_tables[:m], 1):
            n = m - r
            for i in sorted({(j // d**r + t) % d**n for t in range(-span, span + 1)}):
                k = self.row_id(n, i)
                if any((d**r * i + offset) % d**m == j
                       for offset in offsets[k][mask[k]].tolist()):
                    found.append(Word.from_index(i, n, d))
        return found

    def weight(self, u: Word, v: Word) -> Fraction:
        return sum((p for w, p in self.outgoing(u) if w == v), Fraction(0))

    def __repr__(self):
        return (f"EquivariantTableKernel(base_level={self.base_level}, "
                f"radius={self.radius})")


class DoublingKernel(EquivariantTableKernel):
    """The family p_x: the table ``doubling_table_spec(x)``, with
    index-level accessors for the degree-2 circle graph."""

    def __init__(self, x: Fraction, graph: TileGraph | None = None,
                 depth_limit: int = DEFAULT_DEPTH_LIMIT):
        self.x = Fraction(x)
        realization = graph.realization if graph else CircleRealization(2)
        if realization.degree != 2:
            raise KernelError("doubling kernel needs a degree-2 realization")
        super().__init__(doubling_table_spec(self.x), graph, realization, depth_limit)

    def targets_index(self, i: int, n: int) -> list[tuple[int, Fraction]]:
        """(index, probability) of each transition out of (n, i)."""
        return [(j, p) for _, j, p in self._targets(n, i)]

    def predecessors_index(self, j: int, m: int) -> list[int]:
        """Index of each level-(m-1) tile with a positive step to (m, j)."""
        return [u.index(2) for u in self.predecessors(Word.from_index(j, m, 2))]

    def __repr__(self):
        return f"DoublingKernel(x={self.x})"


Kernel = EquivariantTableKernel


def doubling_kernel(x: Fraction, graph: TileGraph | None = None,
                    depth_limit: int = DEFAULT_DEPTH_LIMIT) -> DoublingKernel:
    """The p_x kernel; see DoublingKernel."""
    return DoublingKernel(Fraction(x), graph, depth_limit)


def extend_by_equivariance(spec: TableSpec, graph: TileGraph | None = None,
                           realization: CircleRealization | None = None,
                           depth_limit: int = DEFAULT_DEPTH_LIMIT) -> EquivariantTableKernel:
    """Extend a base-window table to all depths by shift-equivariance."""
    return EquivariantTableKernel(spec, graph, realization, depth_limit)


def doubling_weights(x: Fraction) -> tuple[Fraction, Fraction]:
    """The step weights (x, y) of p_x, 0 < x < 1: x on one of the four
    children, y = (1-x)/3 on each of the other three."""
    x = Fraction(x)
    if not 0 < x < 1:
        raise KernelError(f"x must lie in (0,1), got {x}")
    return x, (1 - x) / 3


def doubling_table_spec(x: Fraction, base_level: int = 2) -> TableSpec:
    """The doubling family p_x, 0 < x < 1, on sources of level <= base_level:
    from the root, x-weighted choice between the two level-1 tiles; from
    the tile indexed i at level n, one step to the four level-(n+1) tiles
    indexed 2i-1 .. 2i+2 (mod 2^(n+1)), with weight x on the index
    congruent to 2 mod 4 and weight y on the rest (``doubling_weights``)."""
    x, y = doubling_weights(x)
    entries = [(ROOT, Word.from_index(0, 1, 2), (2 - 2 * x) / 3),
               (ROOT, Word.from_index(1, 1, 2), (1 + 2 * x) / 3)]
    for n in range(1, base_level + 1):
        for i in range(2**n):
            u = Word.from_index(i, n, 2)
            for j in (2 * i - 1, 2 * i, 2 * i + 1, 2 * i + 2):
                j %= 2 ** (n + 1)
                entries.append((u, Word.from_index(j, n + 1, 2), x if j % 4 == 2 else y))
    return TableSpec(base_level, tuple(entries))


# -- validation ---------------------------------------------------------------


@dataclass
class AssumptionResult:
    ok: bool
    witness: str = ""


@dataclass
class ValidationReport:
    """Per-assumption verdicts for the level/coverage/equivariance
    requirements, with witnesses for failures.  Locality (A) holds by
    construction, every compiled row stepping at most ``kernel.radius``
    levels; its graph-distance radius is reported, not checked."""

    row_sums: AssumptionResult
    level_increase: AssumptionResult     # (B)
    coverage: AssumptionResult           # (C)
    equivariance: AssumptionResult       # (D), checked for |u| > base level
    minimal_radius: int                  # (A), largest graph distance of a step
    equivariant_from_level: int | None   # finest level down to which (D) holds
    checked_levels: int
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.ok for r in (self.row_sums, self.level_increase,
                                  self.coverage, self.equivariance))


def validate_assumptions(kernel: Kernel, graph: TileGraph | None = None) -> ValidationReport:
    """Scan the kernel over the materialized graph and certify the walk
    assumptions: strict level increase, full coverage of touching children,
    and shift-equivariance above the base window; measure the step range.

    Vertices whose shift-image is the root are exempt from the equivariance
    check (the root's outgoing law is unconstrained); the report records the
    finest level from which equivariance actually holds.
    """
    graph = graph or kernel.graph
    if graph is None:
        raise KernelError("validation needs a materialized graph")
    top = graph.max_level - 1
    if top < kernel.base_level + 1:
        raise KernelError("graph too shallow: need max_level >= base_level + 2")

    row_sums = AssumptionResult(True)
    level_inc = AssumptionResult(True)
    coverage = AssumptionResult(True)
    minimal_radius = 0

    # rows: the vertices of levels <= top, in graph.vertices order
    dist = distance_table(graph, top)
    index = {u: i for i, u in enumerate(graph.vertices)}
    outgoing = {}
    for level in range(top + 1):
        for u in graph.levels[level]:
            out = outgoing[u] = kernel.outgoing(u)
            total = sum((p for _, p in out), Fraction(0))
            if total != 1 and row_sums.ok:
                row_sums = AssumptionResult(False, f"row sum {total} at {u}")
            row = dist[index[u]]
            supported = set()
            for w, p in out:
                if p <= 0:
                    continue
                supported.add(w)
                if w.level <= u.level and level_inc.ok:
                    level_inc = AssumptionResult(False, f"{u} -> {w}")
                if w in index:      # targets beyond the truncation have no row
                    minimal_radius = max(minimal_radius, int(row[index[w]]))
            if coverage.ok:
                # the touching children of u are its next-level neighbours
                missing = [v for v in graph.neighbors(u)
                           if v.level == level + 1 and v not in supported]
                if missing:
                    v = min(missing, key=index.__getitem__)
                    coverage = AssumptionResult(False, f"missing {u} -> {v}")

    def equivariant_at(u: Word) -> bool:
        return shift_pushforward(outgoing[u]) == positive_law(outgoing[shift(u)])

    # one verdict per vertex of levels 1..top, read by the check, the scan
    # for the finest equivariant level and the level-1 note
    verdicts = {level: [equivariant_at(u) for u in graph.levels[level]]
                for level in range(1, top + 1)}
    equiv = AssumptionResult(True)
    for level in range(kernel.base_level + 1, top + 1):
        if not all(verdicts[level]):
            u = graph.levels[level][verdicts[level].index(False)]
            equiv = AssumptionResult(False, f"shift-equivariance fails at {u}")
            break

    # informational: the finest level where (D) holds
    equivariant_from = next((level for level in range(2, top + 1)
                             if all(verdicts[level])), None)

    notes = []
    if equivariant_from is not None and equivariant_from > 2:
        notes.append(f"equivariance only holds from level {equivariant_from}")
    if equivariant_from == 2 and not all(verdicts[1]):
        notes.append("level-1 vertices are not equivariant over the root "
                     "(root law unconstrained; exempted)")

    return ValidationReport(
        row_sums=row_sums,
        level_increase=level_inc,
        coverage=coverage,
        equivariance=equiv,
        minimal_radius=minimal_radius,
        equivariant_from_level=equivariant_from,
        checked_levels=top,
        notes=notes,
    )


# -- table text format --------------------------------------------------------


def save_table_spec(spec: TableSpec, out: TextIO):
    """Write spec in the format ``load_table_spec`` reads.  A word is written
    as its symbols with no separator, so only symbols 0-9 can be saved."""
    for u, v, _ in spec.entries:
        if any(s > 9 for s in u.symbols + v.symbols):
            raise KernelError(f"{u.symbols} -> {v.symbols}: a table file holds "
                              f"symbols 0-9 only")
    out.write("# tilewalk kernel table\n")
    out.write(f"base_level = {spec.base_level}\n")
    rows = sorted(spec.entries,
                  key=lambda e: (e[0].level, str(e[0]), e[1].level, str(e[1])))
    for u, v, p in rows:
        out.write(f"{u}\t{v}\t{p.numerator}/{p.denominator}\n")


def load_table_spec(lines: Iterable[str]) -> TableSpec:
    base_level = None
    entries = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("base_level"):
            value = line.partition("=")[2].strip()
            try:
                base_level = int(value)
            except ValueError:
                raise KernelError(f"line {lineno}: base_level {value!r} is not an integer") from None
            continue
        parts = line.split()
        if len(parts) != 3:
            raise KernelError(f"line {lineno}: expected 'source target p/q'")
        try:
            u, v = parse_word(parts[0]), parse_word(parts[1])
        except ValueError as exc:
            raise KernelError(f"line {lineno}: {exc}") from None
        num, _, den = parts[2].partition("/")
        try:
            p = Fraction(int(num), int(den) if den else 1)
        except (ValueError, ZeroDivisionError):
            raise KernelError(f"line {lineno}: probability {parts[2]!r} is not p/q, q != 0") from None
        entries.append((u, v, p))
    if base_level is None:
        raise KernelError("missing base_level line")
    return TableSpec(base_level, tuple(entries))
