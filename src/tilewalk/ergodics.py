"""Monte Carlo path sampling, drift and Green-drift estimation, empirical
harmonic measures, fractal dimension estimation, and exact path-space
invariance checks.

Sampling draws floating-point uniforms from one seeded stream per path
(derived from the scenario seed and the path index), so results are
bit-reproducible regardless of worker count.  The streams are CPython's
Mersenne Twister, seeded for many paths at once in numpy; sampled paths are
held as integer arrays (``PathSamples``).  Everything downstream of the
sampled indices that feeds an exact identity -- hitting probabilities,
cylinder weights, pushforward bin maps -- stays in integer or rational
arithmetic; logarithms and bin masses are the only floating-point outputs.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .green_martin import green_table, hitting_vector, root_numerators
from .kernels import (
    BLOCK,
    Kernel,
    LevelOverflowError,
    RowTable,
    index_dtype,
    positive_law,
    shift_pushforward,
)
from .symbolic import ROOT, Word

# SHA-256 for the stream seeds and the scenario hash.  The stdlib's hash
# module loads OpenSSL's libcrypto (3.6 MB of RSS per process), so try the
# interpreter's built-in module first, as the stdlib's random does for sha512.
try:
    from _sha256 import sha256  # CPython 3.10-3.11
except ImportError:
    try:
        from _sha2 import sha256  # CPython 3.12+
    except ImportError:
        from hashlib import sha256


def frac_log(fr: Fraction) -> float:
    """log of a positive rational, safe for huge numerators/denominators
    (``math.log`` takes an int of any size)."""
    if fr <= 0:
        raise ValueError("log of non-positive rational")
    return math.log(fr.numerator) - math.log(fr.denominator)


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
    digest = sha256(f"tilewalk:{seed}:{path_index}".encode()).digest()
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
        return list(zip(*(a.tolist() for a in self.final_midpoint_arrays())))

    def final_midpoint_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``final_midpoints`` as an array of numerators and one of
        denominators, both of Python integers."""
        nums, dens = np.empty(len(self), dtype=object), np.empty(len(self), dtype=object)
        for rows, idx, n in self.by_final_level():
            # 2 d^n needs the spare digit of a level-(n + 1) index dtype
            dtype = index_dtype(self.degree, n + 1)
            num = 2 * idx.astype(dtype) + 1
            den = np.array(2 * self.degree**n, dtype=dtype)
            g = np.gcd(num, den)
            nums[rows] = (num // g).tolist()
            dens[rows] = (den // g).tolist()
        return nums, dens


def _stream_seeds(seed: int, start: int, stop: int) -> np.ndarray:
    """``_stream_seed(seed, p)`` for p in start..stop-1, each hash continuing
    one shared hash of the prefix ``tilewalk:{seed}:``."""
    prefix = sha256(f"tilewalk:{seed}:".encode())
    digests = bytearray()
    for p in range(start, stop):
        h = prefix.copy()
        h.update(str(p).encode())
        digests += h.digest()[:8]
    return np.frombuffer(digests, dtype=">u8").astype(np.uint64)


# CPython's Mersenne Twister (MT19937): state size and twist offset
_MT_N, _MT_M = 624, 397


def _init_genrand(s: int) -> np.ndarray:
    """MT19937's init_genrand(s), the state init_by_array starts from; numpy's
    RandomState(s) holds it too, but importing numpy.random costs 10 ms and 2 MB."""
    mt = [s]
    for i in range(1, _MT_N):
        mt.append((1812433253 * (mt[-1] ^ (mt[-1] >> 30)) + i) & 0xFFFFFFFF)
    return np.array(mt, dtype=np.uint32)


_MT_INIT = _init_genrand(19650218)


def _mt_mix(prev: np.ndarray, row: np.ndarray, tmp: np.ndarray, mult: np.uint32):
    """row ^= (prev ^ (prev >> 30)) * mult, modulo 2^32: the mixing half of
    one init_by_array step."""
    np.right_shift(prev, 30, out=tmp)
    np.bitwise_xor(tmp, prev, out=tmp)
    np.multiply(tmp, mult, out=tmp)
    row ^= tmp


def _mt_outputs(stream_seeds: np.ndarray, n_words: int) -> np.ndarray:
    """The first n_words 32-bit outputs of ``random.Random(s)`` for each
    stream seed s < 2^64, one column per seed, from one (624, len) uint32
    state for all the seeds given; the sampler gives at most ``BLOCK``, a
    20 MB state.

    ``random.Random(s)`` seeds by init_by_array over the little-endian 32-bit
    words of s: one key word when s < 2^32, two otherwise.  Its two loops
    (624 and 623 steps) run here on the state, one row per step and the
    same ufuncs for every seed.  Step t of the first loop adds key[j] + j,
    j = t mod (key length): key[0] at even t, and key[1] + 1 at odd t
    (key[0] again for a one-word key).  The first twist makes word i from
    the old words i, i + 1 and i + 397, so the first 227 outputs need no
    word that twist has already replaced; only those are twisted and
    tempered.
    """
    if n_words > _MT_N - _MT_M:
        raise ValueError(f"at most {_MT_N - _MT_M} outputs per seed, got {n_words}")
    mt = np.repeat(_MT_INIT[:, None], len(stream_seeds), axis=1)
    tmp = np.empty(len(stream_seeds), dtype=np.uint32)
    rows = list(mt)
    low = (stream_seeds & 0xFFFFFFFF).astype(np.uint32)
    high = (stream_seeds >> 32).astype(np.uint32)
    keys = (low, np.where(high > 0, high + np.uint32(1), low))
    i = 1
    for t in range(_MT_N):
        _mt_mix(rows[i - 1], rows[i], tmp, np.uint32(1664525))
        rows[i] += keys[t % 2]
        i += 1
        if i == _MT_N:
            rows[0][:] = rows[-1]
            i = 1
    for _ in range(_MT_N - 1):
        _mt_mix(rows[i - 1], rows[i], tmp, np.uint32(1566083941))
        rows[i] -= np.uint32(i)
        i += 1
        if i == _MT_N:
            rows[0][:] = rows[-1]
            i = 1
    rows[0][:] = 0x80000000
    y = (mt[:n_words] & 0x80000000) | (mt[1:n_words + 1] & 0x7FFFFFFF)
    y = mt[_MT_M:_MT_M + n_words] ^ (y >> 1) ^ ((y & 1) * np.uint32(0x9908B0DF))
    y ^= y >> 11
    y ^= (y << 7) & 0x9D2C5680
    y ^= (y << 15) & 0xEFC60000
    y ^= y >> 18
    return y


def _mt_random(stream_seeds: np.ndarray, n_draws: int) -> np.ndarray:
    """The first n_draws of ``random.Random(s).random()`` for each stream seed
    s, one column per seed: ((a >> 5) * 2**26 + (b >> 6)) / 2**53 from output
    pairs a, b of ``_mt_outputs``, as CPython computes it, exact in float64."""
    words = _mt_outputs(stream_seeds, 2 * n_draws)
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (1.0 / 9007199254740992.0)


def _uniforms(seed: int, start: int, stop: int, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Stream seeds of paths start..stop-1 and the first n_steps draws of
    ``random.Random(stream_seed).random()`` for each, as a matrix; every
    path's stream is seeded in one vectorised pass (``_mt_outputs``)."""
    # vectorised: a random.Random per path took about 4x as long at 1e5 x 30 draws
    seeds = _stream_seeds(seed, start, stop)
    return seeds, _mt_random(seeds, n_steps).T


def _sample_chunk(table: RowTable, start: int, stop: int, n_steps: int,
                  seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Stream seeds of paths start..stop-1 and their choice matrix:
    ``choices[s, p]`` is the column of its row that path p's step s + 1
    takes, the first entry whose threshold exceeds the draw, in the smallest
    unsigned dtype that holds the table width.  ``_replay`` turns choices
    into tiles.

    Each block of ``BLOCK`` paths takes its draws from one ``_mt_random``
    call and steps through the table at once, so the scratch is one block's
    seeding state, words and draws and does not grow with the path count.
    """
    m, width = stop - start, table.thresholds.shape[1]
    seeds = _stream_seeds(seed, start, stop)
    choices = np.empty((n_steps, m), dtype=np.min_scalar_type(width - 1))
    # the last column is inf throughout
    thresholds, next_row = table.thresholds.T[:-1], table.next_row.ravel()
    for a in range(0, m, BLOCK):
        draws = _mt_random(seeds[a:a + BLOCK], n_steps)
        row = np.zeros(draws.shape[1], dtype=np.int64)       # the root's
        for r, choice in zip(draws, choices[:, a:a + BLOCK]):
            choice[:] = 0
            for column in thresholds:
                choice += column[row] <= r
            row = next_row[row * width + choice]
        del draws, r        # r views draws; both go before the next block raises the peak
    return seeds, choices


def _replay(table: RowTable, choices: np.ndarray, indices: np.ndarray,
            levels: np.ndarray | None):
    """Step paths from the root by the columns of ``choices`` (one row per
    step, as ``_sample_chunk`` returns them), writing the tile index after
    step s + 1 to ``indices[s]`` and, when ``levels`` is an array, its level
    to ``levels[s]``.  From the level-n tile indexed i, column c of its row
    k leads to the tile indexed (d^r i + offset) mod d^(n + r),
    r = ``table.steps[k, c]``; one step serves every radius, ``BLOCK`` paths
    at a time, with d^r read per entry."""
    d, width = table.degree, table.steps.shape[1]
    steps, offsets, next_row = table.steps.ravel(), table.offsets.ravel(), table.next_row.ravel()
    scales = (d ** table.steps).ravel()
    n_steps, m = choices.shape
    sizes = np.array([d**n for n in range(n_steps * int(table.steps.max()) + 1)],
                     dtype=indices.dtype)
    for a in range(0, m, BLOCK):
        b = min(a + BLOCK, m)
        i = np.zeros(b - a, dtype=indices.dtype)
        n = np.zeros(b - a, dtype=np.int64)
        row = np.zeros(b - a, dtype=np.int64)       # the root's
        for step, choice in enumerate(choices[:, a:b]):
            at = row * width + choice
            row = next_row[at]
            n = n + steps[at]
            i = (scales[at] * i + offsets[at]) % sizes[n]
            indices[step, a:b] = i
            if levels is not None:
                levels[step, a:b] = n


# fewest paths for which a process pool beats one process on wall time: the
# crossover measured at x = 3/5, 30 steps, 2 workers on 2 vCPUs; the pool
# costs more CPU at every size
POOL_MIN_PATHS = 25_000


def sample_paths(kernel: Kernel, n_paths: int, n_steps: int, seed: int,
                 workers: int = 1) -> PathSamples:
    """Draw independent level-increasing paths from the root.

    Path p draws from its own Mersenne Twister stream, the one
    ``random.Random(_stream_seed(seed, p))`` produces, so the result is
    bit-reproducible for fixed (seed, n_paths, n_steps) no matter how many
    workers split the index range.  Each worker (or this process, for one
    worker or few paths) draws the streams of its paths in numpy
    (``_mt_random``) and steps them through the kernel's row table, sending
    back only the stream seeds and the column each step chose, one byte per
    step for tables up to 256 wide.  The choices are replayed here through
    the same table (``_replay``) into the preallocated arrays of the result,
    so apart from that result the memory is one block of ``BLOCK`` paths.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    # a step draws two 32-bit outputs, and _mt_outputs gives at most 227 per seed
    if n_steps > (_MT_N - _MT_M) // 2:
        raise ValueError(f"n_steps must be <= {(_MT_N - _MT_M) // 2}, got {n_steps}")
    if n_steps * kernel.radius > kernel.depth_limit:
        raise LevelOverflowError(
            f"{n_steps} steps of radius {kernel.radius} exceed depth limit "
            f"{kernel.depth_limit}")
    table = kernel.table
    chunks = _sampled_chunks(table, n_paths, n_steps, seed, workers)
    # the result is allocated once the first chunk is back: in one process
    # the seeding and stepping buffers are freed by then
    first = next(chunks)
    seeds = np.empty(n_paths, dtype=np.uint64)
    indices = np.empty((n_steps, n_paths),
                       dtype=index_dtype(kernel.realization.degree, n_steps * kernel.radius))
    levels = None if kernel.radius == 1 else np.empty((n_steps, n_paths), dtype=np.int64)
    for a, (chunk_seeds, choices) in itertools.chain([first], chunks):
        b = a + len(chunk_seeds)
        seeds[a:b] = chunk_seeds
        _replay(table, choices, indices[:, a:b], None if levels is None else levels[:, a:b])
    levels = (np.broadcast_to(np.arange(1, n_steps + 1), (n_paths, n_steps))
              if levels is None else levels.T)
    return PathSamples(kernel.realization.degree, np.arange(n_paths), seeds, indices.T, levels)


def _sampled_chunks(table: RowTable, n_paths: int, n_steps: int, seed: int, workers: int):
    """(first path, ``_sample_chunk`` result) for each chunk of the paths, in
    path order: one chunk in this process for one worker or fewer than
    ``POOL_MIN_PATHS`` paths, else one per worker from a process pool, each
    yielded as soon as it and the chunks before it are done."""
    if workers <= 1 or n_paths < POOL_MIN_PATHS:
        yield 0, _sample_chunk(table, 0, n_paths, n_steps, seed)
        return
    # processes, not threads: a thread pool lost wall time and RSS at 1e5 paths.
    # Imported here: only a pooled run pays for loading it
    from concurrent.futures import ProcessPoolExecutor

    chunk = (n_paths + workers - 1) // workers
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # the table, not the kernel: one with a level-12 graph pickles to 600 KB
        futures = {a: pool.submit(_sample_chunk, table, a, min(a + chunk, n_paths), n_steps, seed)
                   for a in range(0, n_paths, chunk)}
        for a, future in futures.items():
            yield a, future.result()


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
    hit_values: list[Fraction] | None = field(repr=False, default=None)


def drift_exact(kernel: Kernel) -> Fraction:
    """E|Z_1| = sum_w P(o,w) |w|, the root row's mean level step.  It is the
    almost-sure level drift only when every class row has the root row's mean
    level step, as for ``p_x``, where every step is one level; where they
    differ, the drift is the class rows' mean step under their stationary law."""
    return sum((p * w.level for w, p in kernel.outgoing(ROOT)), Fraction(0))


def root_hitting_probability(kernel: Kernel, target: Word) -> Fraction:
    """F(o, target), by the batched F(o, .) of ``root_numerators``."""
    (num,), q = root_numerators(kernel, [target.index(kernel.realization.degree)], target.level)
    return Fraction(num, q**target.level)


class UnreachableSampleError(ValueError):
    """A sampled path ends on a tile the root does not reach: F(o, Z_n) = 0,
    so the path cannot have been drawn from the kernel."""


def green_drift_estimate(kernel: Kernel, samples: PathSamples,
                         keep_values: bool = False) -> DriftReport:
    """Monte Carlo Green drift: mean over paths of -log F(o, Z_n) / n.

    F values are exact: integer numerators from one batched DP per final
    level (``root_numerators``); only the final logarithm is floating point.
    The reported stderr is the across-path spread at fixed n, not a
    rigorous bound for the n -> oo limit.
    """
    if not len(samples):
        raise ValueError("no samples")
    n = samples.n_steps
    gs = np.empty(len(samples))
    values = [None] * len(samples) if keep_values else None
    for rows, finals, level in samples.by_final_level():
        nums, q = root_numerators(kernel, finals, level)
        if 0 in nums:
            w = Word.from_index(int(finals[nums.index(0)]), level, samples.degree)
            raise UnreachableSampleError(f"sampled path has F(o, Z_n) = 0 at {w}")
        log_q = level * math.log(q)
        gs[rows] = [(log_q - math.log(num)) / n for num in nums]
        if values is not None:
            for row, num in zip(rows.tolist(), nums):
                values[row] = Fraction(num, q**level)
    est = float(np.mean(gs))
    stderr = float(np.std(gs, ddof=1) / math.sqrt(len(gs))) if len(gs) > 1 else 0.0
    return DriftReport(drift_exact(kernel), est, stderr, len(samples), n, gs, values)


def _evolve(kernel: Kernel, dist: dict[Word, Fraction]) -> dict[Word, Fraction]:
    """The walk's distribution one step after ``dist``."""
    nxt: dict[Word, Fraction] = {}
    for u, pu in dist.items():
        for w, p in kernel.outgoing(u):
            if p:
                nxt[w] = nxt.get(w, Fraction(0)) + pu * p
    return nxt


def exact_green_drift_curve(kernel: Kernel, n_max: int) -> list[float]:
    """E(g_n) = -sum_v P(Z_n = v) log F(o, v), n = 1..n_max, over the exact
    law of Z_n from ``_evolve`` (for radius R > 1 it spreads over levels
    n..nR, so it is not F(o, .) on level n) with F(o, .) from one root table
    to level n_max R.  Full-law DP: test scales only."""
    table = green_table(kernel, ROOT, n_max * kernel.radius)
    law, curve = {ROOT: Fraction(1)}, []
    for _ in range(n_max):
        law = _evolve(kernel, law)
        curve.append(sum(float(p) * -frac_log(table.value(v)) for v, p in law.items()))
    return curve


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


# levels by which the sampled depth must exceed the bin level
DEPTH_MARGIN = 10


def empirical_harmonic_measure(samples: PathSamples, bin_level: int) -> EmpiricalMeasure:
    """Bin the final-tile midpoints at the d-adic resolution ``bin_level``.

    Requires the sampled depth to exceed the bin level by ``DEPTH_MARGIN``
    so the bin assignment is insensitive to the midpoint proxy (tile
    diameters shrink like d**-n).
    """
    if not len(samples):
        raise ValueError("no samples")
    d = samples.degree
    n_bins = d**bin_level
    shallow = samples.final_levels < bin_level + DEPTH_MARGIN
    if shallow.any():
        raise InsufficientDepthError(
            f"need n_steps >= bin_level + {DEPTH_MARGIN}, got depth "
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
    # the slope depends on the bin alone: one fit per distinct bin, read in draw order
    slopes = {}
    for b in set(bins):
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
        slopes[b] = float(slope)
    dims = [slopes[b] for b in bins if b in slopes]
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


def _shifted_masses(kernel: Kernel, law: dict[Word, Fraction],
                    max_m: int) -> dict[tuple[Word, ...], Fraction]:
    """The mass of each shifted chain within ``max_m`` steps of ``law``: a
    continuation z, w_1..w_j (j <= max_m) of a tile z of the law counts for
    (o, sigma^|z| w_1, ..., sigma^|z| w_j).  From the root's law the chains
    are the support cylinders, level by level in row order, and the masses
    their weights prod P(v_i, v_{i+1})."""
    masses: dict[tuple[Word, ...], Fraction] = {}
    # (shifted chain, |z|, w_j) -> mass; continuations depend on w_j alone
    frontier = {((ROOT,), z.level, z): p for z, p in law.items()}
    for _ in range(max_m):
        nxt: dict[tuple[tuple[Word, ...], int, Word], Fraction] = {}
        for (chain, t, u), pu in frontier.items():
            for w, p in kernel.outgoing(u):
                if p:
                    key = (chain + (Word(w.symbols[t:]),), t, w)
                    nxt[key] = nxt.get(key, Fraction(0)) + pu * p
        frontier = nxt
        for (chain, _, _), p in frontier.items():
            masses[chain] = masses.get(chain, Fraction(0)) + p
    return masses


def cylinder_invariance_check(kernel: Kernel, max_m: int, max_k: int) -> CylinderInvarianceReport:
    """Exact check of the path-space shift invariance P o T^-k = P on the
    support cylinders [v_0..v_m], m <= max_m, k <= max_k: the shifted chain
    masses of the law of Z_k (``_shifted_masses``) must equal those of the
    root's law, the weights prod P(v_i, v_{i+1}).

    Also checks the mixing factorization P(C intersect T^-k C') =
    P(C) P(C') for support-cylinder pairs once k exceeds the depth of the
    first cylinder, from the shifted chain masses of the first cylinder's
    evolved law.  Failures are reported with the witness cylinder, not
    raised.
    """
    laws = [{ROOT: Fraction(1)}]
    for _ in range(max_k):
        laws.append(_evolve(kernel, laws[-1]))
    shifted = [_shifted_masses(kernel, law, max_m) for law in laws]
    weight = shifted[0]
    rows: list[CylinderRow] = []
    for cyl, rhs in weight.items():
        for k, masses in enumerate(shifted):
            lhs = masses.get(cyl, Fraction(0))
            rows.append(CylinderRow(cyl, k, lhs, rhs, lhs == rhs))

    mixing_rows: list[MixingRow] = []
    short_m = max(1, max_m - 1)
    short = [c for c in weight if len(c) - 1 <= short_m]
    for first in short:
        # the walk's law on [first] at steps m + 1 .. max_k, m = len(first) - 1
        law, later = {first[-1]: weight[first]}, []
        for _ in range(len(first), max_k + 1):
            law = _evolve(kernel, law)
            later.append(_shifted_masses(kernel, law, short_m))
        for second in short:
            rhs = weight[first] * weight[second]
            for k, masses in enumerate(later, len(first)):
                lhs = masses.get(second, Fraction(0))
                mixing_rows.append(MixingRow(first, second, k, lhs, rhs, lhs == rhs))
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

    root_law = positive_law(root_out)
    level1_equivariant = all(shift_pushforward(kernel.outgoing(u)) == root_law
                             for u in level1)
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
