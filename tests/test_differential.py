"""Differential tests: the array-backed sampler, the batched F(o, .) routine,
the binning, the samples.tsv formatting, the integer lift of table kernels
and their compiled rows, the integer tile-pair diameters, the level-sweep
distance table and the geometry and validation built on them against
per-path and per-vertex reference code, the exact Fraction DPs, the
Fraction tile geometry and the lift itself."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilewalk.cli import fmt_frac, parse_scenario, run_command
from tilewalk.ergodics import (
    PathSamples,
    _stream_seed,
    doubling_root_numerators,
    empirical_harmonic_measure,
    green_drift_estimate,
    root_hitting_probability,
    sample_paths,
)
from tilewalk.green_martin import green_table, hitting_vector
from tilewalk.kernels import (
    AssumptionResult,
    LiftAmbiguityError,
    TableSpec,
    _arc_gap,
    doubling_kernel,
    doubling_table_spec,
    extend_by_equivariance,
    validate_assumptions,
)
from tilewalk.symbolic import (
    ROOT,
    CircleRealization,
    Word,
    arcs_diameter,
    pair_diameters,
    parse_word,
    shift,
    tile_arcs,
    tile_of,
    tiles_intersect,
)
from tilewalk.tile_graph import (
    bfs_distances,
    build_graph,
    diameter_comparability,
    distance_table,
    hyperbolicity_delta,
)


# -- per-path reference sampler --------------------------------------------------


def _reference_doubling(x, n_steps, rng):
    fy = float((1 - x) / 3)
    fx = float(x)
    i = 0 if rng.random() < float((2 - 2 * x) / 3) else 1
    out = [i]
    for n in range(1, n_steps):
        r = rng.random()
        if i % 2 == 0:
            cuts = (fy, 2 * fy, 3 * fy)
        else:
            cuts = (fy, fy + fx, 2 * fy + fx)
        j = 2 * i + 2
        for offset, cut in enumerate(cuts):
            if r < cut:
                j = 2 * i - 1 + offset
                break
        i = j % (1 << (n + 1))
        out.append(i)
    return tuple(out), tuple(range(1, n_steps + 1))


def _reference_generic(kernel, n_steps, rng):
    d = kernel.realization.degree
    u = ROOT
    indices, levels = [], []
    for _ in range(n_steps):
        out = kernel.outgoing(u)
        r = rng.random()
        acc = 0.0
        chosen = out[-1][0]
        for w, p in out:
            acc += float(p)
            if r < acc:
                chosen = w
                break
        u = chosen
        indices.append(u.index(d))
        levels.append(u.level)
    return tuple(indices), tuple(levels)


def _reference_paths(kernel, n_paths, n_steps, seed, step):
    rows = []
    for idx in range(n_paths):
        s = _stream_seed(seed, idx)
        rows.append((idx, s) + step(kernel, n_steps, random.Random(s)))
    return rows


def _rows(samples):
    return [(s.path_index, s.stream_seed, s.indices, s.levels) for s in samples]


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("x,n_steps", [(F(3, 5), 12), (F(1, 7), 64)])
def test_doubling_sampler_matches_reference_loop(x, n_steps, workers):
    k = doubling_kernel(x)
    samples = sample_paths(k, 600, n_steps, seed=21, workers=workers)
    ref = _reference_paths(k.x, 600, n_steps, 21, _reference_doubling)
    assert _rows(samples) == ref
    if n_steps == 64:
        assert max(s.final_index for s in samples) >= 2**63   # past int64


def _far_reach_table():
    o_row = [(ROOT, parse_word("0"), F(1, 2)), (ROOT, parse_word("1"), F(1, 2))]
    far = [
        (parse_word("0"), Word.from_index(0, 2, 2), F(1, 2)),
        (parse_word("0"), Word.from_index(5, 3, 2), F(1, 2)),
        (parse_word("1"), Word.from_index(2, 2, 2), F(1, 2)),
        (parse_word("1"), Word.from_index(1, 3, 2), F(1, 2)),
    ]
    return TableSpec(1, tuple(o_row + far))


_SAMPLER_SPECS = [(doubling_table_spec(F(3, 5), 2), 1), (doubling_table_spec(F(3, 5), 2), 3),
                  (_far_reach_table(), 1), (_far_reach_table(), 3)]


@pytest.mark.parametrize("spec,workers", _SAMPLER_SPECS,
                         ids=["1", "3", "far-reach-1", "far-reach-3"])
def test_table_sampler_matches_reference_loop(spec, workers):
    k = extend_by_equivariance(spec, realization=CircleRealization(2))
    samples = sample_paths(k, 520, 7, seed=5, workers=workers)
    assert _rows(samples) == _reference_paths(k, 520, 7, 5, _reference_generic)


def test_path_samples_slicing_and_views():
    samples = sample_paths(doubling_kernel(F(2, 5)), 40, 9, seed=3)
    part = samples[10:20]
    assert isinstance(part, PathSamples) and len(part) == 10
    assert _rows(part) == _rows(samples)[10:20]
    assert samples[-1] == list(samples)[-1]
    assert samples[5].final_word == Word.from_index(samples[5].final_index, 9, 2)


# -- integer lift of table kernels -----------------------------------------------


@given(st.integers(2, 5), st.integers(0, 6), st.integers(0, 6), st.data())
@settings(max_examples=200, deadline=None)
def test_arc_gap_matches_tile_distance(d, n, m, data):
    r = CircleRealization(d)
    u = Word.from_index(data.draw(st.integers(0, d**n - 1)), n, d)
    w = Word.from_index(data.draw(st.integers(0, d**m - 1)), m, d)
    top = max(n, m)
    gap = _arc_gap(u.index(d) * d ** (top - n), d ** (top - n),
                   w.index(d) * d ** (top - m), d ** (top - m), d**top)
    assert F(gap, d**top) == tile_of(r, u).distance(tile_of(r, w))


def _reference_lift(kernel, u, w_prime):
    """Every candidate lift within reach, tested with Fraction tiles."""
    d = kernel.realization.degree
    k = u.level - kernel.base_level
    m = w_prime.level + k
    band = kernel.reach * F(d) ** (-u.level)
    tile_u = tile_of(kernel.realization, u)
    block = d ** w_prime.level
    t0 = (u.index(d) * d ** (m - u.level)) // block
    matches = []
    for t in (t0 - 1, t0, t0 + 1):
        w = Word.from_index(w_prime.index(d) + (t % d**k) * block, m, d)
        if tile_of(kernel.realization, w).distance(tile_u) <= band and w not in matches:
            matches.append(w)
    return matches


@pytest.mark.parametrize("spec", [doubling_table_spec(F(3, 5), 2),
                                  doubling_table_spec(F(1, 3), 3),
                                  doubling_table_spec(F(2, 7), 1),
                                  _far_reach_table()],
                         ids=["x=3/5,N0=2", "x=1/3,N0=3", "x=2/7,N0=1", "far-reach"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_table_lift_matches_fraction_geometry(spec, data):
    k = extend_by_equivariance(spec, realization=CircleRealization(2))
    n = data.draw(st.integers(k.base_level + 1, 60))
    # the first and last tiles of a level sit next to the wraparound point
    i = data.draw(st.one_of(st.sampled_from([0, 1, 2**n - 2, 2**n - 1]),
                            st.integers(0, 2**n - 1)))
    u = Word.from_index(i, n, 2)
    base = u
    for _ in range(n - k.base_level):
        base = shift(base)
    for w_prime, _ in k.window[base]:
        assert [k._lift(u, w_prime)] == _reference_lift(k, u, w_prime)


_LIFT_SPECS = [doubling_table_spec(F(3, 5), 2), doubling_table_spec(F(1, 3), 3),
               doubling_table_spec(F(2, 7), 1), _far_reach_table()]
_LIFT_IDS = ["x=3/5,N0=2", "x=1/3,N0=3", "x=2/7,N0=1", "far-reach"]


def _lifted_row(k, u):
    """The outgoing row of u lifted from the window row of sigma^(n-N0) u."""
    base = u
    for _ in range(u.level - k.base_level):
        base = shift(base)
    return tuple((k._lift(u, w_prime), p) for w_prime, p in k.window[base])


@pytest.mark.parametrize("spec", _LIFT_SPECS, ids=_LIFT_IDS)
def test_compiled_rows_match_lift_on_shallow_levels(spec):
    k = extend_by_equivariance(spec, realization=CircleRealization(2))
    for n in range(k.base_level + 1, k.base_level + 7):
        for i in range(2**n):
            u = Word.from_index(i, n, 2)
            assert k.outgoing(u) == _lifted_row(k, u)


@pytest.mark.parametrize("spec", _LIFT_SPECS, ids=_LIFT_IDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_compiled_rows_match_lift_deep(spec, data):
    k = extend_by_equivariance(spec, realization=CircleRealization(2))
    n = data.draw(st.integers(k.base_level + 1, 60))
    i = data.draw(st.one_of(st.sampled_from([0, 1, 2**n - 2, 2**n - 1]),
                            st.integers(0, 2**n - 1)))
    u = Word.from_index(i, n, 2)
    assert k.outgoing(u) == _lifted_row(k, u)


def _uneven_table():
    """Suffix classes with different supports: 0 splits, 1 steps to 10."""
    o_row = [(ROOT, parse_word("0"), F(1, 2)), (ROOT, parse_word("1"), F(1, 2))]
    rows = [(parse_word("0"), parse_word("00"), F(1, 2)),
            (parse_word("0"), parse_word("01"), F(1, 2)),
            (parse_word("1"), parse_word("10"), F(1))]
    return TableSpec(1, tuple(o_row + rows))


@pytest.mark.parametrize("spec", _LIFT_SPECS + [_uneven_table()], ids=_LIFT_IDS + ["uneven"])
def test_compiled_predecessors_match_brute_force(spec):
    k = extend_by_equivariance(spec, realization=CircleRealization(2))
    top = k.base_level + 5
    sources = {}
    for n in range(top):
        for i in range(2**n):
            u = Word.from_index(i, n, 2)
            for w, p in k.outgoing(u):
                if p > 0:
                    sources.setdefault(w, set()).add(u)
    for m in range(top + 1):
        for j in range(2**m):
            v = Word.from_index(j, m, 2)
            preds = k.predecessors(v)
            assert len(preds) == len(set(preds))
            assert set(preds) == sources.get(v, set())


def test_ambiguous_lift_raises_when_built():
    # base level 0: over u = 0 the window target 0 lifts both to 00, inside
    # A_u, and to 10, which touches A_u at 1/2
    spec = TableSpec(0, ((ROOT, parse_word("0"), F(1, 2)), (ROOT, parse_word("1"), F(1, 2))))
    with pytest.raises(LiftAmbiguityError):
        extend_by_equivariance(spec, realization=CircleRealization(2))


# -- batched F(o, .) --------------------------------------------------------------


@st.composite
def _doubling_targets(draw):
    qx = draw(st.one_of(st.integers(2, 40), st.integers(41, 10**6),
                        st.just(10**3), st.just(2**70 + 1)))
    px = draw(st.integers(1, qx - 1))
    n = draw(st.one_of(st.integers(1, 20), st.integers(21, 64), st.just(64)))
    idx = draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=4))
    return F(px, qx), n, idx


@given(_doubling_targets())
@settings(max_examples=60, deadline=None)
def test_root_numerators_match_hitting_vector(case):
    x, n, idx = case
    k = doubling_kernel(x)
    nums, q = doubling_root_numerators(x, idx, n)
    for i, num in zip(idx, nums):
        exact = hitting_vector(k, Word.from_index(i, n, 2))[ROOT]
        assert F(num, q**n) == exact


@pytest.mark.parametrize("x,n", [(F(1, 1000), 11), (F(1, 4), 64), (F(3, 5), 33),
                                 (F(5, 2**70 + 1), 3)])
def test_root_numerators_wide_values(x, n):
    # q^n >= 2^126 in every case: the join runs past two int64 words
    q = 3 * x.denominator
    assert q**n >= 2**126
    idx = [0, 1, 2**n // 3, 2**n - 1]
    nums, _ = doubling_root_numerators(x, idx, n)
    k = doubling_kernel(x)
    assert [F(m, q**n) for m in nums] == [
        hitting_vector(k, Word.from_index(i, n, 2))[ROOT] for i in idx]


@given(st.integers(1, 30).map(lambda p: F(p, 31)), st.integers(1, 9))
@settings(max_examples=15, deadline=None)
def test_root_numerators_match_green_table(x, n):
    table = green_table(doubling_kernel(x), ROOT, n)
    nums, q = doubling_root_numerators(x, np.arange(2**n), n)
    assert [F(m, q**n) for m in nums] == [table.value(Word.from_index(i, n, 2))
                                          for i in range(2**n)]


def test_root_hitting_probability_of_root_is_one():
    assert root_hitting_probability(doubling_kernel(F(1, 4)), ROOT) == 1


def test_green_drift_doubling_matches_table_kernel():
    x = F(3, 5)
    tk = extend_by_equivariance(doubling_table_spec(x, 2), realization=CircleRealization(2))
    samples = sample_paths(doubling_kernel(x), 30, 10, seed=4)
    batched = green_drift_estimate(doubling_kernel(x), samples, keep_values=True)
    generic = green_drift_estimate(tk, samples, keep_values=True)
    assert batched.hit_values == generic.hit_values


# -- binning and samples.tsv formatting -------------------------------------------


def _mixed_samples(degree, levels, seed):
    """PathSamples whose final tiles sit on the given levels."""
    rng = random.Random(seed)
    n_steps = max(levels)
    dtype = np.int64 if degree ** (n_steps + 1) <= 2**63 else object
    indices = np.zeros((len(levels), n_steps), dtype=dtype)
    level_rows = np.tile(np.arange(1, n_steps + 1), (len(levels), 1))
    for row, n in enumerate(levels):
        indices[row, -1] = rng.randrange(degree**n)
        level_rows[row, -1] = n
    return PathSamples(degree, np.arange(len(levels)), np.arange(len(levels)),
                       indices, level_rows)


@pytest.mark.parametrize("degree,levels", [
    (2, [30] * 50), (3, [12, 13, 14] * 20), (2, [63, 64] * 5), (12, [4, 5] * 5)])
def test_final_words_and_midpoints_match_word_formatting(degree, levels):
    samples = _mixed_samples(degree, levels, seed=degree)
    words = samples.final_words()
    mids = samples.final_midpoints()
    for s, word, (num, den) in zip(samples, words, mids):
        assert word == str(s.final_word)
        assert f"{num}/{den}" == fmt_frac(s.final_midpoint())


@pytest.mark.parametrize("degree,levels,bin_level", [
    (2, [30] * 200, 10), (3, [12, 13, 14] * 50, 2), (2, [63, 64] * 20, 8)])
def test_binning_matches_midpoint_floor(degree, levels, bin_level):
    samples = _mixed_samples(degree, levels, seed=7)
    n_bins = degree**bin_level
    counts = np.zeros(n_bins, dtype=np.int64)
    for s in samples:
        counts[((2 * s.final_index + 1) * n_bins)
               // (2 * degree**s.final_level) % n_bins] += 1
    measure = empirical_harmonic_measure(samples, bin_level)
    assert np.array_equal(measure.masses, counts / len(samples))


def test_samples_tsv_rows_match_word_formatting(tmp_path):
    scn = parse_scenario('kernel.x = "3/5"\nrun.n_paths = 700\nrun.n_steps = 20\n'
                         'run.bin_level = 6\n')
    assert run_command("simulate", scn, tmp_path, workers=2) == 0
    body = [line for line in (tmp_path / "samples.tsv").read_text().splitlines()
            if not line.startswith("#")][1:]
    samples = sample_paths(doubling_kernel(F(3, 5)), 700, 20, seed=1)
    assert body == [f"{s.path_index}\t{s.stream_seed}\t{s.final_word}\t"
                    f"{fmt_frac(s.final_midpoint())}" for s in samples]


# -- integer tile-pair diameters ---------------------------------------------------


def _integer_diameter(d, u, v, top):
    start, width = tile_arcs(CircleRealization(d), [u, v], top)
    num = pair_diameters(start[0], width[0], start[1], width[1], d**top)
    return F(int(num), 2 * d**top)


@given(st.integers(2, 5), st.integers(0, 6), st.integers(0, 6), st.integers(0, 2),
       st.sampled_from(["any", "wrap", "nested"]), st.data())
@settings(max_examples=400, deadline=None)
def test_pair_diameter_matches_fraction_arcs(d, n, m, extra, kind, data):
    def index(level):
        if kind == "wrap":      # tiles next to the wraparound point 0 == 1
            return data.draw(st.sampled_from([0, 1, d**level - 2, d**level - 1])) % d**level
        return data.draw(st.integers(0, d**level - 1))

    u = Word.from_index(index(n), n, d)
    if kind == "nested":        # v a descendant of u
        tail = data.draw(st.integers(0, d**m - 1))
        v = Word.from_index(u.index(d) * d**m + tail, n + m, d)
    else:
        v = Word.from_index(index(m), m, d)
    r = CircleRealization(d)
    expected = arcs_diameter([tile_of(r, u), tile_of(r, v)])
    top = max(u.level, v.level) + extra
    assert _integer_diameter(d, u, v, top) == expected
    assert _integer_diameter(d, v, u, top) == expected


@pytest.mark.parametrize("d,n", [(2, 1), (2, 3), (3, 2), (5, 1)])
def test_pair_diameter_rows_match_fraction_arcs(d, n):
    """All pairs of levels <= n, one row at a time as diameter_comparability
    evaluates them: touching, disjoint, nested and covering pairs."""
    r = CircleRealization(d)
    words = build_graph(r, n).vertices
    start, width = tile_arcs(r, words, n)
    for i, u in enumerate(words):
        row = pair_diameters(start[i], width[i], start, width, d**n)
        for j, v in enumerate(words):
            assert F(int(row[j]), 2 * d**n) == arcs_diameter([tile_of(r, u), tile_of(r, v)])


def test_tile_arcs_reject_deeper_tiles_and_inexact_denominators():
    with pytest.raises(ValueError, match="deeper"):
        tile_arcs(CircleRealization(2), [Word.from_index(0, 3, 2)], 2)
    with pytest.raises(ValueError, match="too large"):
        tile_arcs(CircleRealization(2), [ROOT], 52)
    assert tile_arcs(CircleRealization(2), [ROOT], 51)[1].tolist() == [2**51]


# -- the level-sweep distance table ------------------------------------------------


@pytest.mark.parametrize("d,L", [(2, 8), (3, 5)])
def test_distance_table_matches_bfs(d, L):
    graph = build_graph(CircleRealization(d), L)
    verts = graph.vertices
    table = distance_table(graph, L)
    assert table.shape == (len(verts), len(verts))
    for i, u in enumerate(verts):
        du = bfs_distances(graph, u)
        assert table[i].tolist() == [du[v] for v in verts], u
    for k in range(L):
        n_src = sum(len(level) for level in graph.levels[: k + 1])
        assert np.array_equal(distance_table(graph, k), table[:n_src])


def test_distance_table_of_the_root_graph():
    graph = build_graph(CircleRealization(3), 0)
    assert distance_table(graph, 0).tolist() == [[0]]


# -- hyperbolicity and diameter comparability against per-vertex references -------


def _reference_arrays(graph, cutoff):
    """The per-vertex BFS distance matrix of levels <= cutoff."""
    verts = [u for level in graph.levels[: cutoff + 1] for u in level]
    rows = [bfs_distances(graph, u) for u in verts]
    dist = np.array([[du[v] for v in verts] for du in rows])
    return verts, np.array([u.level for u in verts]), dist


def _reference_delta(graph, cutoff, triple_budget, sample_size, seed):
    verts, levels, dist = _reference_arrays(graph, cutoff)
    n = len(verts)
    g2 = (levels[:, None] + levels[None, :] - dist).tolist()
    best, witness = -1, (0, 0, 0)
    if n**3 <= triple_budget:     # first strict maximum in (z, x, y) order
        for z in range(n):
            for x in range(n):
                for y in range(n):
                    val = min(g2[x][z], g2[z][y]) - g2[x][y]
                    if val > best:
                        best, witness = val, (x, y, z)
    else:
        rng = random.Random(seed)
        for _ in range(sample_size):
            x, y, z = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            val = min(g2[x][z], g2[z][y]) - g2[x][y]
            if val > best:
                best, witness = val, (x, y, z)
    return F(max(best, 0), 2), tuple(verts[i] for i in witness) + (ROOT,)


def _reference_comparability(graph, pair_level):
    """Fraction arcs_diameter over every pair, first strict maximum in
    row-major order."""
    r, d = graph.realization, graph.realization.degree
    verts, levels, dist = _reference_arrays(graph, pair_level)
    max_ratio, min_ratio, worst = 0.0, math.inf, None
    for i in range(1, len(verts)):
        for j in range(i, len(verts)):
            diam = arcs_diameter([tile_of(r, verts[i]), tile_of(r, verts[j])])
            g2 = int(levels[i] + levels[j] - dist[i, j])
            ratio = float(diam) * d ** (g2 / 2)
            if ratio > max_ratio:
                max_ratio, worst = ratio, (verts[i], verts[j])
            min_ratio = min(min_ratio, ratio)
    return max(max_ratio, 1.0 / min_ratio), max_ratio, min_ratio, worst


@pytest.mark.parametrize("d,L,cutoffs", [(3, 3, (1, 2, 3)), (2, 6, (4, 5, 6))])
def test_hyperbolicity_matches_reference_loop(d, L, cutoffs):
    graph = build_graph(CircleRealization(d), L)
    for c in cutoffs:
        rep = hyperbolicity_delta(graph, c)
        assert rep.exhaustive
        assert (rep.delta, rep.witness) == _reference_delta(graph, c, 30_000_000, 0, 0)
    sampled = hyperbolicity_delta(graph, L, triple_budget=100, sample_size=3000, seed=4)
    assert not sampled.exhaustive
    assert (sampled.delta, sampled.witness) == _reference_delta(graph, L, 100, 3000, 4)


@pytest.mark.parametrize("d,L", [(3, 4), (2, 4), (2, 5), (2, 6)])
def test_diameter_comparability_matches_reference_loop(d, L):
    graph = build_graph(CircleRealization(d), L)
    for level in sorted({1, L // 2, L}):
        rep = diameter_comparability(graph, level)
        constant, max_ratio, min_ratio, worst = _reference_comparability(graph, level)
        assert rep.constant == constant
        assert rep.max_ratio == max_ratio
        assert rep.min_ratio == min_ratio
        assert rep.worst_pair == worst


# -- validate_assumptions against the per-vertex version ---------------------------


def _reference_validation(kernel, graph):
    """Row sums, level increase, coverage and minimal radius as scanned
    with one bfs_distances per vertex and tiles_intersect per child."""
    row_sums = level_inc = coverage = AssumptionResult(True)
    minimal_radius = 0
    for level in range(graph.max_level):
        for u in graph.levels[level]:
            out = kernel.outgoing(u)
            total = sum((p for _, p in out), F(0))
            if total != 1 and row_sums.ok:
                row_sums = AssumptionResult(False, f"row sum {total} at {u}")
            dists = bfs_distances(graph, u)
            supported = set()
            for w, p in out:
                if p <= 0:
                    continue
                supported.add(w)
                if w.level <= u.level and level_inc.ok:
                    level_inc = AssumptionResult(False, f"{u} -> {w}")
                if w in dists:
                    minimal_radius = max(minimal_radius, dists[w])
            for v in graph.levels[level + 1]:
                if (tiles_intersect(graph.realization, u, v) and v not in supported
                        and coverage.ok):
                    coverage = AssumptionResult(False, f"missing {u} -> {v}")
    return row_sums, level_inc, coverage, minimal_radius


class _DroppedChildren:
    """A kernel that drops the first and the last touching child of every
    level-3 vertex, folding their mass into the second; at 000 the dropped
    children lie on both sides of the wraparound point."""

    def __init__(self, base):
        self.base = base
        self.graph, self.realization = base.graph, base.realization
        self.base_level, self.radius = base.base_level, base.radius

    def outgoing(self, u):
        out = list(self.base.outgoing(u))
        if u.level == 3:
            (_, p0), (w1, p1), (_, p_last) = out[0], out[1], out[-1]
            return [(w1, p0 + p1 + p_last)] + out[2:-1]
        return out


_GRAPH6 = build_graph(CircleRealization(2), 6)


@pytest.mark.parametrize("make", [
    lambda: doubling_kernel(F(1, 4), build_graph(CircleRealization(2), 8)),
    lambda: doubling_kernel(F(3, 5), _GRAPH6),
    lambda: extend_by_equivariance(doubling_table_spec(F(3, 5), 2), _GRAPH6),
    lambda: extend_by_equivariance(_far_reach_table(), _GRAPH6),
    lambda: _DroppedChildren(doubling_kernel(F(1, 4), _GRAPH6)),
], ids=["reference", "supercritical", "table", "far-reach", "dropped-children"])
def test_validation_matches_per_vertex_scan(make):
    kernel = make()
    report = validate_assumptions(kernel)
    assert (report.row_sums, report.level_increase, report.coverage,
            report.minimal_radius) == _reference_validation(kernel, kernel.graph)

