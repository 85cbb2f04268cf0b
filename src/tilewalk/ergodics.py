"""Monte Carlo path sampling, drift and Green-drift estimation, empirical
harmonic measures, fractal dimension estimation, and exact path-space
invariance checks.

Sampling draws floating-point uniforms from one seeded stream per path
(derived from the scenario seed and the path index), so results are
bit-reproducible regardless of worker count; sampled paths are held as
integer arrays (``PathSamples``).  Everything downstream of the
sampled indices that feeds an exact identity -- hitting probabilities,
cylinder weights, pushforward bin maps -- stays in integer or rational
arithmetic; logarithms and bin masses are the only floating-point outputs.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .green_martin import green_table, hitting_vector
from .kernels import DoublingKernel, Kernel, LevelOverflowError, index_dtype
from .symbolic import ROOT, Word, shift


def _log_int(n: int) -> float:
    try:
        return math.log(n)
    except OverflowError:
        b = n.bit_length() - 64
        return math.log(n >> b) + b * math.log(2)


def frac_log(fr: Fraction) -> float:
    """log of a positive rational, safe for huge numerators/denominators."""
    if fr <= 0:
        raise ValueError("log of non-positive rational")
    return _log_int(fr.numerator) - _log_int(fr.denominator)


# -- path samples --------------------------------------------------------------


@dataclass(frozen=True)
class PathSample:
    """One sampled trajectory Z_0 = o, Z_1, ..., Z_n.

    Positions are stored as (tile index, level) per step; words are
    materialized on demand.
    """

    path_index: int
    stream_seed: int
    degree: int
    indices: tuple[int, ...]
    levels: tuple[int, ...]

    @property
    def n_steps(self) -> int:
        return len(self.indices)

    @property
    def final_level(self) -> int:
        return self.levels[-1]

    @property
    def final_index(self) -> int:
        return self.indices[-1]

    def word(self, step: int) -> Word:
        if step == 0:
            return ROOT
        return Word.from_index(self.indices[step - 1], self.levels[step - 1],
                               self.degree)

    @property
    def steps(self) -> tuple[Word, ...]:
        return tuple(self.word(s) for s in range(self.n_steps + 1))

    @property
    def final_word(self) -> Word:
        return self.word(self.n_steps)

    def final_midpoint(self) -> Fraction:
        d = Fraction(self.degree)
        return (Fraction(2 * self.final_index + 1) / (2 * d**self.final_level)) % 1


def _stream_seed(seed: int, path_index: int) -> int:
    digest = hashlib.sha256(f"tilewalk:{seed}:{path_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(eq=False)
class PathSamples(Sequence):
    """Sampled trajectories held as arrays, one row per path.

    ``indices[p, s]`` and ``levels[p, s]`` give the tile of path p after
    step s + 1.  Indexing or iterating yields ``PathSample`` views; slicing
    yields a ``PathSamples`` over the selected rows.
    """

    degree: int
    path_index: np.ndarray
    stream_seed: np.ndarray
    indices: np.ndarray
    levels: np.ndarray

    def __len__(self) -> int:
        return len(self.path_index)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return PathSamples(self.degree, self.path_index[key], self.stream_seed[key],
                               self.indices[key], self.levels[key])
        return PathSample(int(self.path_index[key]), int(self.stream_seed[key]),
                          self.degree, tuple(self.indices[key].tolist()),
                          tuple(self.levels[key].tolist()))

    @property
    def n_steps(self) -> int:
        return self.indices.shape[1]

    @property
    def final_indices(self) -> np.ndarray:
        return self.indices[:, -1]

    @property
    def final_levels(self) -> np.ndarray:
        return self.levels[:, -1]

    def by_final_level(self):
        """(rows, final indices, level) for each distinct final level."""
        final_levels = self.final_levels
        for n in np.flatnonzero(np.bincount(final_levels)).tolist():
            rows = np.flatnonzero(final_levels == n)
            yield rows, self.final_indices[rows], n

    def final_words(self) -> list[str]:
        """``str`` of each path's final word: its index as ``level`` base-d
        digits."""
        d = self.degree
        words = [""] * len(self)
        for rows, idx, n in self.by_final_level():
            if d > 10:
                # symbols of two or more decimal digits
                strs = [str(Word.from_index(i, n, d)) for i in idx.tolist()]
            else:
                digits = np.empty((len(rows), n), dtype=np.uint8)
                for col in range(n - 1, -1, -1):
                    digits[:, col] = idx % d
                    idx = idx // d
                strs = (digits + ord("0")).view(f"S{n}").ravel().astype(str).tolist()
            for r, w in zip(rows.tolist(), strs):
                words[r] = w
        return words

    def final_midpoints(self) -> list[tuple[int, int]]:
        """Reduced (numerator, denominator) of each final tile's midpoint
        (2i + 1) / (2 d^n)."""
        out: list[tuple[int, int]] = [(0, 1)] * len(self)
        for rows, idx, n in self.by_final_level():
            den = 2 * self.degree**n
            for r, i in zip(rows.tolist(), idx.tolist()):
                num = 2 * i + 1
                g = math.gcd(num, den)
                out[r] = (num // g, den // g)
        return out


def _uniforms(seed: int, start: int, stop: int, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Stream seeds of paths start..stop-1 and the first n_steps draws of
    ``random.Random(stream_seed).random()`` for each, as a matrix.

    ``random()`` builds each draw from two consecutive 32-bit Mersenne
    Twister outputs a, b as ((a >> 5) * 2**26 + (b >> 6)) / 2**53, and
    ``getrandbits(64 * n)`` returns the same 2n outputs with the first one in
    the lowest bits, so one call per path gives all of its draws.
    """
    rng = random.Random()
    # the C-level seeding; random.Random.seed only adds a dispatch on the
    # argument type in front of it
    reseed = super(random.Random, rng).seed
    seeds = np.empty(stop - start, dtype=np.uint64)
    words = bytearray()
    for row, idx in enumerate(range(start, stop)):
        s = _stream_seed(seed, idx)
        seeds[row] = s
        reseed(s)
        words += rng.getrandbits(64 * n_steps).to_bytes(8 * n_steps, "little")
    w = np.frombuffer(words, dtype="<u4").reshape(stop - start, 2 * n_steps)
    uniforms = ((w[:, 0::2] >> 5) * 67108864.0 + (w[:, 1::2] >> 6)) * (1.0 / 9007199254740992.0)
    return seeds, uniforms


@dataclass(frozen=True)
class _StepRows:
    """A kernel's compiled rows as arrays, which pool workers receive.  Entry
    col of row k sits at k * width + col of ``steps``, ``offsets`` and
    ``next_row`` (the child's row); ``thresholds[col, k]`` is the running
    float sum of row k up to entry col, inf padding short rows."""

    degree: int
    radius: int
    width: int
    thresholds: np.ndarray
    steps: np.ndarray
    offsets: np.ndarray
    next_row: np.ndarray


def _step_rows(kernel: Kernel) -> _StepRows:
    d = kernel.realization.degree
    width = max(len(row) for row in kernel.rows)
    thresholds = np.full((width - 1, len(kernel.rows)), np.inf)
    steps, offsets, next_row = (np.zeros((len(kernel.rows), width), dtype=np.int64)
                                for _ in range(3))
    for k, ((n, i), row) in enumerate(zip(kernel.row_tiles, kernel.rows)):
        acc = 0.0
        for col, (r, offset, p) in enumerate(row):
            acc += float(p)
            if col < len(row) - 1:
                thresholds[col, k] = acc
            steps[k, col], offsets[k, col] = r, offset
            next_row[k, col] = kernel.row_id(n + r, d**r * i + offset)
    return _StepRows(d, kernel.radius, width, thresholds, steps.ravel(),
                     offsets.ravel(), next_row.ravel())


def _sample_chunk(rows: _StepRows, start: int, stop: int, n_steps: int,
                  seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Stream seeds, indices and levels (None for radius 1: level s + 1
    after step s + 1) of paths start..stop-1, all stepping at once.  From
    the level-n tile indexed i a step takes the first entry k of its row
    whose running sum exceeds the draw (the last if none does) to the tile
    indexed (d^r_k i + offset_k) mod d^(n + r_k) on level n + r_k.
    """
    seeds, uniforms = _uniforms(seed, start, stop, n_steps)
    d = rows.degree
    dtype = index_dtype(d, n_steps * rows.radius)
    draws = np.ascontiguousarray(uniforms.T)        # one row per step
    sizes = np.array([d**n for n in range(n_steps * rows.radius + 1)], dtype=dtype)
    indices = np.empty(draws.shape, dtype=dtype)
    levels = None if rows.radius == 1 else np.empty(draws.shape, dtype=np.int64)
    i = np.zeros(stop - start, dtype=dtype)
    n = np.zeros(stop - start, dtype=np.int64)
    row = np.zeros(stop - start, dtype=np.int64)       # the root's
    for step, r in enumerate(draws):
        at = row * rows.width
        for column in rows.thresholds:
            at += column[row] <= r
        row = rows.next_row[at]
        if levels is None:
            i = (d * i + rows.offsets[at]) % sizes[step + 1]
        else:
            n = n + rows.steps[at]
            i = (d ** rows.steps[at] * i + rows.offsets[at]) % sizes[n]
            levels[step] = n
        indices[step] = i
    return seeds, indices.T, None if levels is None else levels.T


def sample_paths(kernel: Kernel, n_paths: int, n_steps: int, seed: int,
                 workers: int = 1) -> PathSamples:
    """Draw independent level-increasing paths from the root.

    Path p draws from its own ``random.Random`` stream, seeded from (seed,
    p), so the result is bit-reproducible for fixed (seed, n_paths, n_steps)
    no matter how many workers split the index range.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if n_steps * kernel.radius > kernel.depth_limit:
        raise LevelOverflowError(
            f"{n_steps} steps of radius {kernel.radius} exceed depth limit "
            f"{kernel.depth_limit}")
    rows = _step_rows(kernel)
    if workers <= 1 or n_paths < 512:
        chunks = [_sample_chunk(rows, 0, n_paths, n_steps, seed)]
    else:
        chunk = (n_paths + workers - 1) // workers
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_sample_chunk, rows, a, min(a + chunk, n_paths),
                                   n_steps, seed)
                       for a in range(0, n_paths, chunk)]
            chunks = [f.result() for f in futures]
    seeds = np.concatenate([c[0] for c in chunks])
    indices = np.concatenate([c[1] for c in chunks])
    if chunks[0][2] is None:
        levels = np.broadcast_to(np.arange(1, n_steps + 1), indices.shape)
    else:
        levels = np.concatenate([c[2] for c in chunks])
    return PathSamples(kernel.realization.degree, np.arange(n_paths), seeds,
                       indices, levels)


# -- drift ----------------------------------------------------------------------


@dataclass
class DriftReport:
    """Level drift (exact) and Green drift (Monte Carlo estimate)."""

    l: Fraction
    l_G_estimate: float
    l_G_stderr: float
    n_paths: int
    n_steps: int
    g_over_n: np.ndarray = field(repr=False, default=None)


def drift_exact(kernel: Kernel) -> Fraction:
    """E|Z_1| = sum_w P(o,w) |w|; the level increments away from the root are
    i.i.d. copies by equivariance, so this is the almost-sure level drift."""
    return sum((p * w.level for w, p in kernel.outgoing(ROOT)), Fraction(0))


# Largest forward level of doubling_root_numerators: its table holds
# 2**level entries.
_FORWARD_MAX_LEVEL = 16
_INT64_MAX = 2**63 - 1


def doubling_root_numerators(x: Fraction, indices, level: int) -> tuple[list[int], int]:
    """Exact F(o, u) of the doubling kernel p_x for the level-``level`` tiles
    u with the given indices, as numerators over q**level, q = 3 * den(x).

    All scaled weights are integers over the common denominator q, so every
    partial sum is an integer and no gcd is ever taken.  A forward stencil
    gives q^k F(o, v) for all 2^k tiles v of a split level k; a backward band
    DP, vectorised over the targets, gives q^(n-k) F(v, u) on the ancestor
    cone of each target, which is an interval of at most 3 tiles per level;
    one Python-integer dot product per target joins the two halves.  Each
    half runs in int64 when its values (at most q^k and q^(n-k)) fit, and
    in Python integers otherwise.
    """
    px, qx = x.numerator, x.denominator
    q = 3 * qx
    wx, wy = 3 * px, qx - px
    n = level
    if n == 0:
        return [1] * len(indices), q
    k = 1
    while k < min(n, _FORWARD_MAX_LEVEL) and q ** (k + 1) <= _INT64_MAX:
        k += 1

    # forward: table[v] = q^m F(o, v) on level m; the step into tile j has
    # weight x when j = 2 (mod 4), and j's predecessors are
    # (j+1)//2 - 1 and (j+1)//2 (mod 2^m)
    fdtype = np.int64 if q**k <= _INT64_MAX else object
    table = np.array([2 * qx - 2 * px, qx + 2 * px], dtype=fdtype)
    step_weights = np.array([wy, wy, wx, wy], dtype=fdtype)
    for m in range(1, k):
        nxt = np.empty(2 ** (m + 1), dtype=fdtype)
        nxt[0::2] = np.roll(table, 1) + table
        nxt[1::2] = table + np.roll(table, -1)
        table = nxt * np.tile(step_weights, 2 ** (m - 1))
    targets = np.asarray(indices, dtype=index_dtype(2, n))
    if n == k:
        return table[targets].tolist(), q

    # backward: band[p, s] = q^(n-m) F(tile lo[p] + s, target p) on level m,
    # lo taken without reduction mod 2^m
    bdtype = np.int64 if q ** (n - k) <= _INT64_MAX else object
    step_weights = step_weights.astype(bdtype)
    band = np.zeros((len(targets), 3), dtype=bdtype)
    band[:, 0] = 1
    lo = targets
    slots = np.arange(3)
    for m in range(n - 1, k - 1, -1):
        pushed = band * step_weights[((lo[:, None] + slots) % 4).astype(np.int64)]
        c0, c1, c2 = pushed[:, 0], pushed[:, 1], pushed[:, 2]
        # slot s of level m+1 feeds slots (s+1)//2 and (s+1)//2 + 1 of level
        # m when lo is even, s//2 and s//2 + 1 when lo is odd
        odd = (lo % 2).astype(bool)
        band = np.stack([np.where(odd, c0 + c1, c0), c0 + c1 + c2,
                         np.where(odd, c2, c1 + c2)], axis=1)
        lo = (lo + 1) // 2 - 1
    ancestors = ((lo[:, None] + slots) % 2**k).astype(np.int64)
    return [a0 * b0 + a1 * b1 + a2 * b2 for (a0, a1, a2), (b0, b1, b2)
            in zip(table[ancestors].tolist(), band.tolist())], q


def root_hitting_probability(kernel: Kernel, target: Word) -> Fraction:
    """F(o, target), via the scaled integer DP for the doubling family."""
    if isinstance(kernel, DoublingKernel):
        (num,), q = doubling_root_numerators(kernel.x, [target.index(2)], target.level)
        return Fraction(num, q**target.level)
    return hitting_vector(kernel, target).get(ROOT, Fraction(0))


class UnreachableSampleError(ValueError):
    """A sampled path ends on a tile the root does not reach: F(o, Z_n) = 0,
    so the path cannot have been drawn from the kernel."""


def green_drift_estimate(kernel: Kernel, samples: PathSamples,
                         keep_values: bool = False) -> DriftReport:
    """Monte Carlo Green drift: mean over paths of -log F(o, Z_n) / n.

    F values are exact rationals (batched scaled-integer DP for the doubling
    family, per-path backward DP otherwise); only the final logarithm is
    floating point.  The reported stderr is the across-path spread at fixed
    n, not a rigorous bound for the n -> oo limit.
    """
    if not len(samples):
        raise ValueError("no samples")
    n = samples.n_steps
    finals = samples.final_indices
    if isinstance(kernel, DoublingKernel):
        # every doubling path ends on level n
        nums, q = doubling_root_numerators(kernel.x, finals, n)
        if 0 in nums:
            p = nums.index(0)
            raise UnreachableSampleError(f"sampled path has F(o, Z_n) = 0 at "
                                         f"{Word.from_index(int(finals[p]), n, 2)}")
        log_q = n * _log_int(q)
        gs = np.array([(log_q - _log_int(num)) / n for num in nums])
        values = [Fraction(num, q**n) for num in nums] if keep_values else None
    else:
        d = samples.degree
        values = []
        for i, lvl in zip(finals.tolist(), samples.final_levels.tolist()):
            w = Word.from_index(i, lvl, d)
            f = hitting_vector(kernel, w).get(ROOT, Fraction(0))
            if f == 0:
                raise UnreachableSampleError(f"sampled path has F(o, Z_n) = 0 at {w}")
            values.append(f)
        gs = np.array([-frac_log(f) / n for f in values])
    est = float(np.mean(gs))
    stderr = float(np.std(gs, ddof=1) / math.sqrt(len(gs))) if len(gs) > 1 else 0.0
    report = DriftReport(drift_exact(kernel), est, stderr, len(samples), n, gs)
    if keep_values:
        report.hit_values = values
    return report


def exact_green_drift_curve(kernel: Kernel, n_max: int) -> list[float]:
    """E(g_n) = -sum_v F(o,v) log F(o,v) over level-n vertices, n = 1..n_max,
    from the exact root table.  Full-level DP: test scales only."""
    table = green_table(kernel, ROOT, n_max)
    acc = [0.0] * (n_max + 1)
    for w, fr in table.values.items():
        if w.level >= 1:
            acc[w.level] += float(fr) * (-frac_log(fr))
    return acc[1:]


def check_path_subadditivity(kernel: Kernel, sample: PathSample, cut: int) -> bool:
    """Exact pathwise check F(o, Z_n) >= F(o, Z_cut) F(Z_cut, Z_n)."""
    if not 0 < cut < sample.n_steps:
        raise ValueError("cut must be interior")
    z_cut = sample.word(cut)
    z_n = sample.final_word
    vec = hitting_vector(kernel, z_n)
    f_on = vec.get(ROOT, Fraction(0))
    f_cn = vec.get(z_cut, Fraction(0))
    f_oc = root_hitting_probability(kernel, z_cut)
    return f_on >= f_oc * f_cn


# -- empirical harmonic measure -------------------------------------------------


class InsufficientDepthError(ValueError):
    pass


@dataclass
class EmpiricalMeasure:
    """Escape distribution binned over the d**m level-m tiles of the circle,
    with the walk's limit point approximated by the final tile midpoint."""

    bin_level: int
    degree: int
    masses: np.ndarray
    sample_count: int

    @property
    def n_bins(self) -> int:
        return len(self.masses)

    @property
    def degenerate(self) -> bool:
        return int(np.count_nonzero(self.masses)) <= 1


def empirical_harmonic_measure(samples: PathSamples, bin_level: int,
                               margin: int = 10) -> EmpiricalMeasure:
    """Bin the final-tile midpoints at the d-adic resolution ``bin_level``.

    Requires the sampled depth to exceed the bin level by ``margin`` >= 0 so
    the bin assignment is insensitive to the midpoint proxy (tile diameters
    shrink like d**-n).
    """
    if not len(samples):
        raise ValueError("no samples")
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    d = samples.degree
    n_bins = d**bin_level
    shallow = samples.final_levels < bin_level + margin
    if shallow.any():
        raise InsufficientDepthError(
            f"need n_steps >= bin_level + {margin}, got depth "
            f"{samples.final_levels[np.argmax(shallow)]}")
    bins = np.empty(len(samples), dtype=np.int64)
    for rows, idx, n in samples.by_final_level():
        # the midpoint (2i+1)/(2 d^n) lands in bin ((2i+1) d^m) // (2 d^n),
        # which is i // d^(n-m) for n >= m
        bins[rows] = idx // d ** (n - bin_level)
    counts = np.bincount(bins, minlength=n_bins)
    return EmpiricalMeasure(bin_level, d, counts / len(samples), len(samples))


# -- dimension ------------------------------------------------------------------


@dataclass
class DimensionReport:
    """Local dimension estimates at measure-sampled points and the packing
    surrogate (upper-quantile aggregate) against the drift formula value.

    The packing estimate is projected into [0, 1]: the phase space is
    one-dimensional, so quantile overshoot is sampling noise.  The raw
    unprojected slopes stay available in ``local_dims``.
    """

    local_dims: np.ndarray
    packing_estimate: float
    formula_value: float
    n_points: int
    radius_exponents: tuple[int, int]


def _ball_mass(cum: np.ndarray, masses: np.ndarray, center: float, r: float) -> float:
    """Mass of the arc [center-r, center+r] under the binned measure, with
    linear interpolation inside boundary bins."""
    n = len(masses)

    def cdf(t: float) -> float:
        # mass of [0, t] for t in [0, 1]
        k = min(int(t * n), n - 1)
        frac = t * n - k
        return float(cum[k]) + float(masses[k]) * frac

    lo, hi = center - r, center + r
    if hi - lo >= 1:
        return 1.0
    lo_m, hi_m = lo % 1, hi % 1
    if lo_m < hi_m:
        return cdf(hi_m) - cdf(lo_m)
    return (1.0 - cdf(lo_m)) + cdf(hi_m)


def _upper_envelope(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Upper concave envelope (hull upper chain) of points sorted by x."""
    pts = sorted(points)
    env: list[tuple[float, float]] = []
    for p in pts:
        while len(env) >= 2:
            (x1, y1), (x2, y2) = env[-2], env[-1]
            if (x2 - x1) * (p[1] - y1) - (p[0] - x1) * (y2 - y1) >= 0:
                env.pop()
            else:
                break
        env.append(p)
    return env


def dimension_report(measure: EmpiricalMeasure, drift: DriftReport, a: float,
                     n_points: int = 2000, seed: int = 0) -> DimensionReport:
    """Estimate local dimensions lim log nu(B(xi,r)) / log r on the dyadic
    radius grid r = d**-j, j = 2..m-2, at points sampled from the measure.

    Each local slope is a least-squares fit over the upper concave envelope
    of the (log r, log nu) points (an upper-limit surrogate); the packing
    estimate is the 90th percentile of the local slopes.  The formula value
    l_G / (a l) is reported alongside for comparison.
    """
    m = measure.bin_level
    d = measure.degree
    if m < 5:
        raise ValueError("bin level too coarse for a radius grid")
    masses = measure.masses
    cum = np.concatenate([[0.0], np.cumsum(masses)])
    rng = random.Random(seed)
    bins = rng.choices(range(measure.n_bins), weights=masses, k=n_points)
    j_lo, j_hi = 2, m - 2
    dims = []
    for b in bins:
        xi = (b + 0.5) / measure.n_bins
        pts = []
        for j in range(j_lo, j_hi + 1):
            r = d ** float(-j)
            nu = _ball_mass(cum, masses, xi, r)
            if nu <= 0:
                continue
            pts.append((-j * math.log(d), math.log(nu)))
        if len(pts) < 2:
            continue
        env = _upper_envelope(pts)
        xs = np.array([p[0] for p in env])
        ys = np.array([p[1] for p in env])
        if len(env) == 2:
            slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
        else:
            slope = np.polyfit(xs, ys, 1)[0]
        dims.append(float(slope))
    local = np.array(dims)
    packing = min(max(float(np.percentile(local, 90)), 0.0), 1.0)
    formula = drift.l_G_estimate / (a * float(drift.l))
    return DimensionReport(local, packing, formula, len(local), (j_lo, j_hi))


# -- path-space invariance -------------------------------------------------------


@dataclass
class CylinderRow:
    words: tuple[Word, ...]
    k: int
    lhs: Fraction        # P(T^-k [cylinder])
    rhs: Fraction        # product of transition weights
    equal: bool


@dataclass
class MixingRow:
    first: tuple[Word, ...]
    second: tuple[Word, ...]
    k: int
    lhs: Fraction        # P(first  intersect  T^-k second)
    rhs: Fraction        # P(first) P(second)
    equal: bool


@dataclass
class CylinderInvarianceReport:
    rows: list[CylinderRow]
    mixing_rows: list[MixingRow]

    @property
    def all_equal(self) -> bool:
        return all(r.equal for r in self.rows) and all(r.equal for r in self.mixing_rows)

    def violations(self) -> list[CylinderRow]:
        return [r for r in self.rows if not r.equal]


def _step_distributions(kernel: Kernel, n_steps: int) -> list[dict[Word, Fraction]]:
    dists = [{ROOT: Fraction(1)}]
    for _ in range(n_steps):
        cur = dists[-1]
        nxt: dict[Word, Fraction] = {}
        for u, pu in cur.items():
            for w, p in kernel.outgoing(u):
                if p:
                    nxt[w] = nxt.get(w, Fraction(0)) + pu * p
        dists.append(nxt)
    return dists


def _shift_power(w: Word, t: int) -> Word:
    if t >= w.level:
        return ROOT
    return Word(w.symbols[t:])


def _lifted_chain_mass(kernel: Kernel, z: Word, vs: tuple[Word, ...]) -> Fraction:
    """Sum over continuations w_1..w_m from z with shift^|z| w_i = v_i of the
    product of transition probabilities."""
    t = z.level
    cur = {z: Fraction(1)}
    for v in vs:
        nxt: dict[Word, Fraction] = {}
        for u, pu in cur.items():
            for w, p in kernel.outgoing(u):
                if p and w.level == t + v.level and _shift_power(w, t) == v:
                    nxt[w] = nxt.get(w, Fraction(0)) + pu * p
        cur = nxt
        if not cur:
            return Fraction(0)
    return sum(cur.values(), Fraction(0))


def _support_cylinders(kernel: Kernel, max_m: int) -> list[tuple[Word, ...]]:
    chains: list[tuple[Word, ...]] = []
    frontier: list[tuple[Word, ...]] = [(ROOT,)]
    for _ in range(max_m):
        nxt = []
        for chain in frontier:
            for w, p in kernel.outgoing(chain[-1]):
                if p:
                    nxt.append(chain + (w,))
        chains.extend(nxt)
        frontier = nxt
    return chains


def cylinder_invariance_check(kernel: Kernel, max_m: int, max_k: int) -> CylinderInvarianceReport:
    """Exact check of the path-space shift invariance identity
    P(T^-k [v_0..v_m]) = prod P(v_i, v_{i+1}) for all kernel-support
    cylinders with m <= max_m and k <= max_k, by summation over all level-k
    prefixes and all lifted continuations.

    Also checks the mixing factorization P(C intersect T^-k C') =
    P(C) P(C') for support-cylinder pairs once k exceeds the depth of the
    first cylinder.  Failures are reported with the witness cylinder, not
    raised.
    """
    cylinders = _support_cylinders(kernel, max_m)
    dists = _step_distributions(kernel, max_k)
    rows: list[CylinderRow] = []
    for cyl in cylinders:
        rhs = Fraction(1)
        for u, v in zip(cyl, cyl[1:]):
            rhs *= kernel.weight(u, v)
        for k in range(0, max_k + 1):
            if k == 0:
                lhs = rhs
            else:
                lhs = sum((pz * _lifted_chain_mass(kernel, z, cyl[1:])
                           for z, pz in dists[k].items()), Fraction(0))
            rows.append(CylinderRow(cyl, k, lhs, rhs, lhs == rhs))

    mixing_rows: list[MixingRow] = []
    short = [c for c in cylinders if len(c) - 1 <= max(1, max_m - 1)]
    for first in short:
        m_first = len(first) - 1
        p_first = Fraction(1)
        for u, v in zip(first, first[1:]):
            p_first *= kernel.weight(u, v)
        for second in short:
            p_second = Fraction(1)
            for u, v in zip(second, second[1:]):
                p_second *= kernel.weight(u, v)
            for k in range(m_first + 1, max_k + 1):
                # evolve the first cylinder's endpoint distribution to step k
                cur = {first[-1]: p_first}
                for _ in range(k - m_first):
                    nxt: dict[Word, Fraction] = {}
                    for u, pu in cur.items():
                        for w, p in kernel.outgoing(u):
                            if p:
                                nxt[w] = nxt.get(w, Fraction(0)) + pu * p
                    cur = nxt
                lhs = sum((pz * _lifted_chain_mass(kernel, z, second[1:])
                           for z, pz in cur.items()), Fraction(0))
                mixing_rows.append(MixingRow(first, second, k, lhs,
                                             p_first * p_second,
                                             lhs == p_first * p_second))
    return CylinderInvarianceReport(rows, mixing_rows)


# -- quasi-invariance -------------------------------------------------------------


@dataclass
class QuasiInvarianceReport:
    """Exact structural facts behind f_* nu = nu for the kernel, plus the
    empirical pushforward comparison of a binned measure."""

    level_one_mass: Fraction              # sum of P(o, w) over |w| = 1
    level_one_rows_identical: bool
    level_one_equivariant: bool
    exact_identity: bool
    tv_distance: float                    # binned measure vs its pushforward
    max_bin_ratio: float
    min_bin_ratio: float
    ratio_bound: float                    # (sum P(o,w), |w|=1)^-1
    empty_bins: int
    comparison_level: int


def quasi_invariance_check(measure: EmpiricalMeasure, kernel: Kernel) -> QuasiInvarianceReport:
    """Push the binned measure through x -> d x (mod 1) and compare.

    The pushforward of a level-m binning is exactly a level-(m-1) binning
    (bin i maps onto bin i mod d**(m-1)), so the comparison rebins the
    measure one level coarser; no within-bin assumption is made.

    The exact side: if all one-step mass from the root sits at level 1 and
    either the level-1 rows coincide or level-1 shift-equivariance holds,
    then f_* nu = nu exactly.
    """
    if measure.bin_level < 2:
        raise ValueError("bin level must be >= 2")
    d = kernel.realization.degree
    root_out = kernel.outgoing(ROOT)
    s1 = sum((p for w, p in root_out if w.level == 1), Fraction(0))

    level1 = [Word.from_index(i, 1, d) for i in range(d)]
    rows = [dict(kernel.outgoing(u)) for u in level1]
    rows_identical = all(r == rows[0] for r in rows[1:])

    def pushed(u: Word) -> dict[Word, Fraction]:
        acc: dict[Word, Fraction] = {}
        for w, p in kernel.outgoing(u):
            sw = shift(w)
            acc[sw] = acc.get(sw, Fraction(0)) + p
        return acc

    root_row = {w: p for w, p in root_out if p}
    level1_equivariant = all(pushed(u) == root_row for u in level1)
    exact = s1 == 1 and (rows_identical or level1_equivariant)

    m = measure.bin_level
    masses = measure.masses
    coarse = masses.reshape(d ** (m - 1), d).sum(axis=1)
    pushfwd = masses.reshape(d, d ** (m - 1)).sum(axis=0)
    tv = 0.5 * float(np.abs(pushfwd - coarse).sum())
    nonzero = coarse > 0
    ratios = pushfwd[nonzero] / coarse[nonzero]
    return QuasiInvarianceReport(
        level_one_mass=s1,
        level_one_rows_identical=rows_identical,
        level_one_equivariant=level1_equivariant,
        exact_identity=exact,
        tv_distance=tv,
        max_bin_ratio=float(ratios.max()) if ratios.size else math.nan,
        min_bin_ratio=float(ratios.min()) if ratios.size else math.nan,
        ratio_bound=float(1 / s1) if s1 else math.inf,
        empty_bins=int((~nonzero).sum()),
        comparison_level=m - 1,
    )
