"""Differential tests: the array-backed sampler, the batched F(o, .) routine,
the binning, the samples.tsv formatting, the integer lift of table kernels
and their compiled rows, the integer tile-pair diameters, the level-sweep
distance table and the geometry and validation built on them, and the
integer shadows, hulls and neighbourhoods, and the exact integer DP core
(``green_table``, ``hitting_vector``, ``root_numerators``) and the batched
Martin window reads and the path-space invariance check against per-path,
per-vertex and per-cylinder reference code, the Word/Fraction DPs kept here,
the Fraction tile geometry, the lift itself and explicit path enumeration."""

import math
import random
import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilewalk.cli import fmt_frac, parse_scenario, run_command
from tilewalk import ergodics
from tilewalk.ergodics import (
    PathSamples,
    UnreachableSampleError,
    _mt_outputs,
    _mt_random,
    _stream_seed,
    _uniforms,
    cylinder_invariance_check,
    empirical_harmonic_measure,
    exact_green_drift_curve,
    green_drift_estimate,
    root_hitting_probability,
    sample_paths,
)
from tilewalk.green_martin import (
    MultiplicativeReport,
    _hull,
    _shadow_cells,
    brute_force_hitting,
    check_multiplicative,
    green_table,
    green_value,
    hitting_vector,
    martin_trace,
    martin_traces,
    multiplicative_reports,
    ray_word,
    root_numerators,
    shadow_and_neighbors,
    shadow_hull,
    shadow_set,
)
from tilewalk.kernels import (
    AssumptionResult,
    BLOCK,
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
    arc_hull,
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


# -- vectorised Mersenne Twister seeding -------------------------------------------


def _assert_matches_random(seeds):
    words = _mt_outputs(np.array(seeds, dtype=np.uint64), 128)
    draws = _mt_random(np.array(seeds, dtype=np.uint64), 64)
    for col, s in enumerate(seeds):
        rng = random.Random(s)
        assert words[:, col].tolist() == [rng.getrandbits(32) for _ in range(128)]
        rng = random.Random(s)
        assert draws[:, col].tolist() == [rng.random() for _ in range(64)]


def test_mt_seeding_matches_random_at_key_length_edges():
    # one key word below 2^32 (never drawn from sha256), two from 2^32 on
    _assert_matches_random([0, 1, 2**32 - 1, 2**32, 2**32 + 7, 2**64 - 1])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4))
def test_mt_seeding_matches_random(seeds):
    _assert_matches_random(seeds)


def test_mt_outputs_refuse_words_the_first_twist_replaces():
    assert _mt_outputs(np.array([5], dtype=np.uint64), 227).shape == (227, 1)
    with pytest.raises(ValueError, match="227"):
        _mt_outputs(np.array([5], dtype=np.uint64), 228)


def test_uniforms_match_per_path_streams_across_chunks():
    start, stop = 3, 3 + BLOCK + 5
    seeds, draws = _uniforms(17, start, stop, 64)
    assert seeds.tolist() == [_stream_seed(17, p) for p in range(start, stop)]
    for row, s in enumerate(seeds.tolist()):
        rng = random.Random(s)
        assert draws[row].tolist() == [rng.random() for _ in range(64)]


@pytest.mark.parametrize("workers", [1, 3])
def test_sampler_matches_reference_loop_across_chunks(workers):
    # every worker seeds more than one chunk of paths
    n_paths = 3 * BLOCK + 7
    k = doubling_kernel(F(3, 5))
    samples = sample_paths(k, n_paths, 4, seed=13, workers=workers)
    assert _rows(samples) == _reference_paths(k.x, n_paths, 4, 13, _reference_doubling)


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
    nums, q = root_numerators(k, idx, n)
    for i, num in zip(idx, nums):
        exact = hitting_vector(k, Word.from_index(i, n, 2))[ROOT]
        assert F(num, q**n) == exact


def _numerators_over(q, result, n):
    """Numerators over q^n of ``root_numerators`` values over Q^n, Q | q."""
    nums, scale = result
    return [m * (q // scale) ** n for m in nums], q


@pytest.mark.parametrize("x,n", [(F(1, 1000), 11), (F(1, 4), 64), (F(3, 5), 33),
                                 (F(5, 2**70 + 1), 3)])
def test_root_numerators_wide_values(x, n):
    # q^n >= 2^126 in every case: the join runs past two int64 words
    q = 3 * x.denominator
    assert q**n >= 2**126
    idx = [0, 1, 2**n // 3, 2**n - 1]
    nums, _ = _numerators_over(q, root_numerators(doubling_kernel(x), idx, n), n)
    k = doubling_kernel(x)
    assert [F(m, q**n) for m in nums] == [
        hitting_vector(k, Word.from_index(i, n, 2))[ROOT] for i in idx]


@given(st.integers(1, 30).map(lambda p: F(p, 31)), st.integers(1, 9))
@settings(max_examples=15, deadline=None)
def test_root_numerators_match_green_table(x, n):
    table = green_table(doubling_kernel(x), ROOT, n)
    nums, q = root_numerators(doubling_kernel(x), np.arange(2**n), n)
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


def test_green_drift_rejects_an_unreachable_final_tile():
    # under the uneven table no positive row reaches 11
    k = extend_by_equivariance(_uneven_table(), realization=CircleRealization(2))
    assert ROOT not in hitting_vector(k, parse_word("11"))
    samples = PathSamples(2, np.arange(1), np.arange(1), np.array([[1, 3]]),
                          np.array([[1, 2]]))
    with pytest.raises(UnreachableSampleError, match="at 11$"):
        green_drift_estimate(k, samples)


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


@pytest.mark.parametrize("degree,levels", [
    (2, [61, 62] * 10), (2, [63, 64] * 5), (3, [39, 40, 41] * 10), (3, [5, 44] * 10)])
def test_final_midpoints_match_reduced_fraction(degree, levels):
    # d = 2 at level 62 needs 2 d^n = 2^63, one past int64; degree 3 reduces
    # whenever 3 divides 2i + 1, here with object indices
    samples = _mixed_samples(degree, levels, seed=11)
    mids = samples.final_midpoints()
    for s, (num, den) in zip(samples, mids):
        assert F(num, den) == s.final_midpoint()
        assert math.gcd(num, den) == 1
    assert degree == 2 or any(den < 2 * degree**s.final_level
                              for s, (_, den) in zip(samples, mids))


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


def _reference_equivariance(kernel, graph):
    """The equivariance check, the scan for the finest equivariant level and
    the level-1 note as separate passes over ``equivariant_at``."""
    top = graph.max_level - 1

    def equivariant_at(u):
        pushed = {}
        for w, p in kernel.outgoing(u):
            pushed[shift(w)] = pushed.get(shift(w), F(0)) + p
        base = {w: p for w, p in kernel.outgoing(shift(u)) if p > 0}
        return {w: p for w, p in pushed.items() if p > 0} == base

    equiv = AssumptionResult(True)
    for level in range(kernel.base_level + 1, top + 1):
        bad = [u for u in graph.levels[level] if not equivariant_at(u)]
        if bad:
            equiv = AssumptionResult(False, f"shift-equivariance fails at {bad[0]}")
            break
    equivariant_from = None
    for level in range(2, top + 1):
        if all(equivariant_at(u) for u in graph.levels[level]):
            equivariant_from = level
            break
    notes = []
    if equivariant_from is not None and equivariant_from > 2:
        notes.append(f"equivariance only holds from level {equivariant_from}")
    if equivariant_from == 2 and not all(equivariant_at(u) for u in graph.levels[1]):
        notes.append("level-1 vertices are not equivariant over the root "
                     "(root law unconstrained; exempted)")
    return equiv, equivariant_from, notes


class _FoldedLevelOne(_DroppedChildren):
    """A kernel whose level-1 rows put all their mass on their second child:
    level 2 is not equivariant over them, level 3 is."""

    def outgoing(self, u):
        out = self.base.outgoing(u)
        return [(out[1][0], F(1))] if u.level == 1 else out


@pytest.mark.parametrize("make", [
    lambda: doubling_kernel(F(1, 4), _GRAPH6),
    lambda: extend_by_equivariance(_far_reach_table(), _GRAPH6),
    lambda: extend_by_equivariance(_uneven_table(), _GRAPH6),
    lambda: _DroppedChildren(doubling_kernel(F(1, 4), _GRAPH6)),
    lambda: _FoldedLevelOne(doubling_kernel(F(1, 4), _GRAPH6)),
], ids=["reference", "far-reach", "uneven", "dropped-children", "folded-level-one"])
def test_validation_equivariance_matches_separate_passes(make):
    kernel = make()
    report = validate_assumptions(kernel)
    assert (report.equivariance, report.equivariant_from_level, report.notes) == \
        _reference_equivariance(kernel, kernel.graph)


# -- integer shadows, hulls and neighbourhoods -------------------------------------


def _root_jump_table():
    """Radius 2 at the root: half of the root's mass jumps to level 2."""
    base = doubling_table_spec(F(1, 3), 2)
    entries = [e for e in base.entries if e[0] != ROOT]
    entries += [(ROOT, parse_word("0"), F(1, 2)), (ROOT, parse_word("11"), F(1, 2))]
    return TableSpec(2, tuple(entries))


def _ternary_table():
    """Degree 3: the root splits evenly, a level-1 tile i steps to the five
    tiles 3i-1 .. 3i+3."""
    entries = [(ROOT, Word.from_index(k, 1, 3), F(1, 3)) for k in range(3)]
    for i in range(3):
        entries += [(Word.from_index(i, 1, 3), Word.from_index(j, 2, 3), F(1, 5))
                    for j in range(3 * i - 1, 3 * i + 4)]
    return TableSpec(1, tuple(entries))


def _odd_child_table():
    """Class 1 steps to its second child only, so padding a short row with
    offset 0 (its first child) would reach a tile the kernel never does."""
    o_row = [(ROOT, parse_word("0"), F(1, 2)), (ROOT, parse_word("1"), F(1, 2))]
    rows = [(parse_word("0"), parse_word("00"), F(1, 2)),
            (parse_word("0"), parse_word("01"), F(1, 2)),
            (parse_word("1"), parse_word("11"), F(1))]
    return TableSpec(1, tuple(o_row + rows))


_SHADOW_KERNELS = {
    name: extend_by_equivariance(spec, realization=CircleRealization(d))
    for name, spec, d in list(zip(_LIFT_IDS, _LIFT_SPECS, [2] * 4)) + [
        ("root-jump", _root_jump_table(), 2), ("uneven", _uneven_table(), 2),
        ("odd-child", _odd_child_table(), 2), ("ternary", _ternary_table(), 3)]}


@st.composite
def _shadow_queries(draw, degree, max_depth=4):
    n = draw(st.integers(0, 6 if degree == 2 else 4))
    i = draw(st.one_of(st.sampled_from([0, degree**n - 1]), st.integers(0, degree**n - 1)))
    return Word.from_index(i, n, degree), n + draw(st.integers(0, max_depth))


@pytest.mark.parametrize("name", list(_SHADOW_KERNELS))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_integer_shadow_and_hull_match_green_table_support(name, data):
    k = _SHADOW_KERNELS[name]
    d = k.realization.degree
    u, top = data.draw(_shadow_queries(d))
    support = set(green_table(k, u, top).values)
    cells = _shadow_cells(k, u, top)
    for n, idx in cells.items():
        assert idx.tolist() == sorted(set(idx.tolist()))
    assert shadow_set(k, u, top) == support
    assert shadow_hull(k, u, top) == arc_hull([tile_of(k.realization, v) for v in support])


@pytest.mark.parametrize("name", ["x=3/5,N0=2", "far-reach", "uneven"])
def test_integer_shadow_of_tiles_near_the_depth_limit(name):
    # indices at level 64 overflow int64: the shadow runs on Python integers
    k = _SHADOW_KERNELS[name]
    for i, n in ((0, 60), (2**60 - 1, 60), (2**59 + 5, 61)):
        u = Word.from_index(i, n, 2)
        support = set(green_table(k, u, 64).values)
        assert shadow_set(k, u, 64) == support
        assert shadow_hull(k, u, 64) == arc_hull([tile_of(k.realization, v) for v in support])


@pytest.mark.parametrize("name", list(_SHADOW_KERNELS))
def test_row_table_matches_compiled_rows(name):
    # the table the sampler and the DPs step with lists each row's positive
    # entries in order, padded with step 0 and threshold inf
    k = _SHADOW_KERNELS[name]
    d, t = k.realization.degree, k.table
    assert t.degree == d and t.steps.shape == t.thresholds.shape == (len(k.rows), t.steps.shape[1])
    for row_id, ((n, i), row) in enumerate(zip(k.row_tiles, k.rows)):
        positive = [(r, offset, p) for r, offset, p in row if p > 0]
        width = len(positive)
        assert t.steps[row_id, :width].tolist() == [r for r, _, _ in positive]
        assert not t.steps[row_id, width:].any()
        assert t.offsets[row_id, :width].tolist() == [o for _, o, _ in positive]
        assert t.next_row[row_id, :width].tolist() == [
            k.row_id(n + r, (d**r * i + o) % d ** (n + r)) for r, o, _ in positive]
        assert t.weights[row_id, :width].tolist() == [p * k.scale**r for r, _, p in positive]
        running, acc = [], 0.0
        for _, _, p in positive:
            acc += float(p)
            running.append(acc)
        assert t.thresholds[row_id].tolist() == running[:-1] + [math.inf] * (
            t.steps.shape[1] - width + 1)
    # the DPs' step tables are the table under one mask per level step
    assert len(k.step_tables) == k.radius == t.steps.max()
    for r, (offsets, mask, weights) in enumerate(k.step_tables, 1):
        assert np.array_equal(mask, t.steps == r)
        assert offsets[mask].tolist() == t.offsets[mask].tolist()
        assert weights[mask].tolist() == t.weights[mask].tolist()


@st.composite
def _cell_sets(draw):
    d = draw(st.integers(2, 4))
    top = draw(st.integers(0, 4))
    cells = {}
    for n in draw(st.lists(st.integers(0, top), min_size=1, max_size=3, unique=True)):
        idx = draw(st.lists(st.integers(0, d**n - 1), min_size=1, max_size=6, unique=True))
        cells[n] = np.array(sorted(idx), dtype=np.int64)
    return d, top, cells


def _fraction_hull(d, cells):
    r = CircleRealization(d)
    return arc_hull([tile_of(r, Word.from_index(i, n, d))
                     for n, idx in cells.items() for i in idx.tolist()])


@given(_cell_sets())
@settings(max_examples=400, deadline=None)
def test_integer_hull_matches_arc_hull(case):
    d, top, cells = case
    assert _hull(cells, d, top) == _fraction_hull(d, cells)


@pytest.mark.parametrize("d,top,cells", [
    (2, 3, {3: [0, 4]}),            # two gaps of 3/8: the first in circle order
    (2, 3, {3: [1, 5]}),            # a gap of 3/8 ties with the one across 0
    (3, 2, {2: [0, 3, 6]}),         # three equal gaps
    (2, 3, {1: [1], 3: [0]}),       # the tiles touch across 0: one gap
    (2, 2, {1: [0, 1]}),            # the whole circle, no gap
])
def test_integer_hull_tie_rule(d, top, cells):
    cells = {n: np.array(idx, dtype=np.int64) for n, idx in cells.items()}
    assert _hull(cells, d, top) == _fraction_hull(d, cells)


def _reference_neighbors(kernel, u, max_level):
    """Shadow and neighbours as ``shadow_and_neighbors`` found them: one
    Fraction ``green_table`` per candidate tile near u, its support
    intersected with the support of u's table."""
    radius, d = kernel.radius, kernel.realization.degree
    shadow = frozenset(green_table(kernel, u, max_level).values)
    neighbors = set()
    for level in range(max(u.level - radius, 0), min(u.level + radius, max_level) + 1):
        if level == 0:
            candidates = [ROOT]
        else:
            center = u.index(d) * d**level // d ** u.level if u.level else 0
            span = 3 * max(int(kernel.radius), 1) + int(kernel.reach) + 2
            candidates = [Word.from_index(i, level, d)
                          for i in range(center - span, center + span + 1)]
            if d**level <= 2 * span + 1:
                candidates = [Word.from_index(i, level, d) for i in range(d**level)]
        for v in set(candidates):
            if shadow & frozenset(green_table(kernel, v, max_level).values):
                neighbors.add(v)
    return shadow, neighbors


@pytest.mark.parametrize("name", list(_SHADOW_KERNELS))
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_integer_neighbors_match_shadow_intersections(name, data):
    k = _SHADOW_KERNELS[name]
    d = k.realization.degree
    u, top = data.draw(_shadow_queries(d, max_depth=5 if d == 2 else 3))
    ns = shadow_and_neighbors(k, u, top)
    assert (ns.shadow, ns.neighbors) == _reference_neighbors(k, u, top)
    assert ns.truncated == (u.level + k.radius > top)


@pytest.mark.parametrize("name", list(_SHADOW_KERNELS))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_backward_reach_matches_hitting_vector_support(name, data):
    k = _SHADOW_KERNELS[name]
    d = k.realization.degree
    m = data.draw(st.integers(0, 8))
    j = data.draw(st.integers(0, d**m - 1))
    reach = frontier = {Word.from_index(j, m, d)}
    while frontier:
        frontier = {u for w in frontier for u in k.predecessors(w)} - reach
        reach = reach | frontier
    assert reach == set(hitting_vector(k, Word.from_index(j, m, d)))


@pytest.mark.parametrize("name", ["x=3/5,N0=2", "far-reach", "uneven", "root-jump"])
def test_predecessors_and_neighbors_near_the_depth_limit(name):
    # indices past int64: both run on Python integers
    k = _SHADOW_KERNELS[name]
    for j, m in ((0, 64), (2**64 - 1, 64), (2**61 + 5, 62), (2**59 - 1, 59)):
        v = Word.from_index(j, m, 2)
        # every tile within 8 of an ancestor of v a step can come from
        candidates = {Word.from_index((j >> r) + t, m - r, 2)
                      for r in range(1, k.radius + 1) for t in range(-8, 9)}
        sources = {u for u in candidates if any(w == v and p > 0 for w, p in k.outgoing(u))}
        preds = k.predecessors(v)
        assert len(preds) == len(set(preds))
        assert set(preds) == sources
    for i, n in ((0, 59), (2**61 - 1, 61), (2**62 + 3, 63)):
        u = Word.from_index(i, n, 2)
        ns = shadow_and_neighbors(k, u, 63)
        assert (ns.shadow, ns.neighbors) == _reference_neighbors(k, u, 63)


@pytest.mark.parametrize("name", ["x=3/5,N0=2", "x=1/3,N0=3", "far-reach", "odd-child"])
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_multiplicative_upper_sum_matches_per_neighbor_values(name, data):
    k = _SHADOW_KERNELS[name]
    d = k.realization.degree
    lu = data.draw(st.integers(0, 3))
    u = Word.from_index(data.draw(st.integers(0, d**lu)), lu, d)
    v = Word.from_index(data.draw(st.integers(0, d**4)), data.draw(st.integers(0, lu)), d)
    w = Word.from_index(data.draw(st.integers(0, d**6)), data.draw(st.integers(lu, 6)), d)
    s = Word.from_index(data.draw(st.integers(0, d**6)), data.draw(st.integers(v.level, 6)), d)
    rep = check_multiplicative(k, v, s, u, w)
    _, neighbors = _reference_neighbors(k, u, max(u.level + k.radius + 4, w.level))
    vec_w = hitting_vector(k, w)
    upper = sum((green_value(k, v, t) * (F(1) if t == w else vec_w.get(t, F(0)))
                 for t in neighbors), F(0))
    assert rep.upper == upper
    assert rep.middle == vec_w.get(v, F(0))


def _reference_check_multiplicative(kernel, v, s, u, w):
    """``check_multiplicative`` one quadruple at a time, as it was before the
    batched evaluator: the hitting vector of w, F(v, s) by ``green_value``,
    the Fraction neighbourhood and F(v, t) from one ``green_table``."""
    vec_w = hitting_vector(kernel, w)
    f_vw, f_uw, f_sw = (vec_w.get(x, F(0)) for x in (v, u, s))
    f_vs = green_value(kernel, v, s)
    pre_ok = v.level <= u.level and f_uw > 0
    _, neighbors = _reference_neighbors(kernel, u, max(u.level + kernel.radius + 4, w.level))
    from_v = green_table(kernel, v, max([v.level] + [t.level for t in neighbors]))
    upper = sum((from_v.value(t) * vec_w.get(t, F(0)) for t in neighbors), F(0))
    lower = f_vs * f_sw
    return MultiplicativeReport(
        v=v, s=s, u=u, w=w, lower=lower, middle=f_vw, upper=upper,
        lower_holds=lower <= f_vw, upper_holds=f_vw <= upper, precondition_ok=pre_ok,
        detail="" if pre_ok else "precondition violated: need |v| <= |u| and w in shadow(u)")


@st.composite
def _quadruple_lists(draw, kernel):
    """Quadruples drawn from small pools of u, v and w, so that they repeat.
    v may lie deeper than u; w is often a d-adic descendant of u; s is often
    deeper than every neighbour of u, and usually outside v's cone."""
    d, radius = kernel.realization.degree, kernel.radius

    def tile(level):
        return Word.from_index(draw(st.integers(0, d**level - 1)), level, d)

    us = [tile(draw(st.integers(0, 3))) for _ in range(draw(st.integers(1, 2)))]
    vs = [tile(draw(st.integers(0, 4))) for _ in range(draw(st.integers(1, 3)))]
    ws = []
    for _ in range(draw(st.integers(1, 3))):
        u, extra = draw(st.sampled_from(us)), draw(st.integers(0, 3))
        ws.append(draw(st.one_of(
            st.builds(lambda j: Word.from_index(u.index(d) * d**extra + j, u.level + extra, d),
                      st.integers(0, d**extra - 1)),
            st.integers(0, 6).map(tile))))
    quadruples = []
    for _ in range(draw(st.integers(1, 5))):
        u = draw(st.sampled_from(us))
        ls = draw(st.one_of(st.integers(0, 6),
                            st.integers(u.level + radius + 1, u.level + radius + 3)))
        quadruples.append((draw(st.sampled_from(vs)), tile(ls), u, draw(st.sampled_from(ws))))
    return quadruples, {w: hitting_vector(kernel, w) for w in ws}


@pytest.mark.parametrize("name", _LIFT_IDS + ["uneven"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_multiplicative_reports_match_per_quadruple_reference(name, data):
    k = _SHADOW_KERNELS[name]
    quadruples, vectors = data.draw(_quadruple_lists(k))
    reports = multiplicative_reports(k, quadruples, vectors)
    assert reports == [_reference_check_multiplicative(k, *q) for q in quadruples]
    assert check_multiplicative(k, *quadruples[0]) == reports[0]


# -- the exact integer DP core ---------------------------------------------------


def _reference_green_table(kernel, source, max_level):
    """Forward cone DP in Word/Fraction form, as ``green_table`` computed it
    before the integer core."""
    values = {}
    by_level = {source.level: {source: F(1)}}
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
                    tier[w] = tier.get(w, F(0)) + fu * p
    return values


def _reference_hitting_vector(kernel, target):
    """Backward cone DP in Word/Fraction form, as ``hitting_vector`` computed
    it before the integer core."""
    values = {target: F(1)}
    by_level = {target.level: {target}}
    for level in range(target.level - 1, -1, -1):
        cands = set()
        for deeper in range(level + 1, min(level + kernel.radius, target.level) + 1):
            for w in by_level.get(deeper, ()):
                cands.update(u for u in kernel.predecessors(w) if u.level == level)
        tier = set()
        for u in cands:
            fu = F(0)
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


@st.composite
def _core_kernels(draw):
    """A named test table, or the doubling law at a random x."""
    name = draw(st.sampled_from(list(_SHADOW_KERNELS) + ["random-x"]))
    if name == "random-x":
        q = draw(st.one_of(st.integers(2, 60), st.just(2**70 + 1)))
        return doubling_kernel(F(draw(st.integers(1, q - 1)), q))
    return _SHADOW_KERNELS[name]


@given(_core_kernels(), st.data())
@settings(max_examples=120, deadline=None)
def test_core_green_table_matches_fraction_reference(k, data):
    d = k.realization.degree
    u, top = data.draw(_shadow_queries(d, max_depth=4 if d == 2 else 3))
    values = green_table(k, u, top).values
    assert values == _reference_green_table(k, u, top) == brute_force_hitting(k, u, top)
    assert all(f > 0 for f in values.values())


@given(_core_kernels(), st.data())
@settings(max_examples=120, deadline=None)
def test_core_hitting_vector_matches_fraction_reference(k, data):
    d = k.realization.degree
    m = data.draw(st.one_of(st.integers(0, 7), st.integers(8, 40 if d == 2 else 25)))
    j = data.draw(st.one_of(st.sampled_from([0, d**m - 1]), st.integers(0, d**m - 1)))
    target = Word.from_index(j, m, d)
    vec = hitting_vector(k, target)
    # the keys are exactly the u with F(u, target) > 0, the target included
    assert vec == _reference_hitting_vector(k, target)
    assert vec[target] == 1 and all(f > 0 for f in vec.values())
    if m <= 6:
        # every tile above the target, against explicit path enumeration
        for u in [ROOT] + [Word.from_index(i, n, d) for n in range(1, m) for i in range(d**n)]:
            assert brute_force_hitting(k, u, m).get(target, F(0)) == vec.get(u, F(0))


@pytest.mark.parametrize("name", ["x=3/5,N0=2", "far-reach", "uneven", "ternary"])
def test_core_hitting_vector_near_the_depth_limit(name):
    # indices and numerators at level 64 overflow int64: Python integers
    k = _SHADOW_KERNELS[name]
    d = k.realization.degree
    m = 64 if d == 2 else 40
    for j in (0, d**m - 1, d**m // 3):
        target = Word.from_index(j, m, d)
        assert hitting_vector(k, target) == _reference_hitting_vector(k, target)


@pytest.mark.parametrize("name", list(_SHADOW_KERNELS))
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_core_root_numerators_match_hitting_vector(name, data):
    # enough targets that the forward table reaches a split level k > 0 and
    # the join reads the R bands above it
    k = _SHADOW_KERNELS[name]
    d = k.realization.degree
    m = data.draw(st.integers(1, 14 if d == 2 else 9))
    idx = data.draw(st.lists(st.integers(0, d**m - 1), min_size=1, max_size=60))
    nums, q = root_numerators(k, idx, m)
    assert q == k.scale
    assert [F(num, q**m) for num in nums] == [
        _reference_hitting_vector(k, Word.from_index(i, m, d)).get(ROOT, F(0)) for i in idx]


def test_root_numerators_across_a_target_block_match_hitting_vector():
    # one target more than a block, drawn from 200 level-20 tiles, so the
    # backward DP runs below a split level and the last block holds one target
    k, m = doubling_kernel(F(3, 5)), 20
    rng = np.random.default_rng(4)
    tiles = rng.integers(0, 2**m, 200)
    idx = tiles[rng.integers(0, len(tiles), BLOCK + 1)]
    nums, q = root_numerators(k, idx, m)
    exact = {i: hitting_vector(k, Word.from_index(i, m, 2)).get(ROOT, F(0))
             for i in tiles.tolist()}
    assert len(nums) == len(idx)
    assert [F(num, q**m) for num in nums] == [exact[i] for i in idx.tolist()]


_WIDEST = max(_SHADOW_KERNELS, key=lambda name: _SHADOW_KERNELS[name].table.steps.shape[1])


# the radius-2 table and the widest row table
@pytest.mark.parametrize("name", ["far-reach", _WIDEST])
def test_pooled_sampling_matches_one_process_across_blocks(name, monkeypatch):
    import concurrent.futures

    k = _SHADOW_KERNELS[name]
    width = k.table.steps.shape[1]
    _, choices = ergodics._sample_chunk(k.table, 0, 50, 6, 7)
    assert choices.dtype.kind == "u" and np.iinfo(choices.dtype).max >= width - 1
    assert choices.max() < width
    pools = []
    pool_class = concurrent.futures.ProcessPoolExecutor
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda **kw: pools.append(kw) or pool_class(**kw))
    n_paths = ergodics.POOL_MIN_PATHS + 7
    assert n_paths % BLOCK
    one = sample_paths(k, n_paths, 6, seed=7, workers=1)
    pooled = sample_paths(k, n_paths, 6, seed=7, workers=3)
    assert pools == [{"max_workers": 3}]
    for field in ("path_index", "stream_seed", "indices", "levels"):
        assert np.array_equal(getattr(one, field), getattr(pooled, field)), field


@pytest.mark.parametrize("name,n_steps", [("x=3/5", 4), ("far-reach", 2)])
def test_sampler_matches_reference_loop_across_step_blocks(name, n_steps):
    # the last 3 paths draw from a second _mt_random call and replay in a
    # second block; far-reach steps one or two levels at a time
    n_paths = BLOCK + 3
    if name == "x=3/5":
        k = doubling_kernel(F(3, 5))
        ref = _reference_paths(k.x, n_paths, n_steps, 11, _reference_doubling)
    else:
        k = _SHADOW_KERNELS[name]
        ref = _reference_paths(k, n_paths, n_steps, 11, _reference_generic)
    assert _rows(sample_paths(k, n_paths, n_steps, seed=11)) == ref


@pytest.mark.parametrize("name,n_steps", [("x=3/5", 4), ("far-reach", 2)])
def test_pooled_sampler_matches_reference_loop(name, n_steps, monkeypatch):
    import concurrent.futures

    pools = []
    pool_class = concurrent.futures.ProcessPoolExecutor
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda **kw: pools.append(kw) or pool_class(**kw))
    n_paths = ergodics.POOL_MIN_PATHS + 7
    if name == "x=3/5":
        k = doubling_kernel(F(3, 5))
        ref = _reference_paths(k.x, n_paths, n_steps, 9, _reference_doubling)
    else:
        k = _SHADOW_KERNELS[name]
        ref = _reference_paths(k, n_paths, n_steps, 9, _reference_generic)
    samples = sample_paths(k, n_paths, n_steps, seed=9, workers=3)
    assert pools == [{"max_workers": 3}]
    assert _rows(samples) == ref


def test_exact_green_drift_curve_reads_the_step_law_at_radius_two():
    # the far-reach walk lands on levels n..2n, each path with F(o, Z_n) = 2^-n;
    # the level-n values of F(o, .) sum to less than one
    k = _SHADOW_KERNELS["far-reach"]
    assert abs(exact_green_drift_curve(k, 6)[-1] - 6 * math.log(2)) < 1e-12
    report = green_drift_estimate(k, sample_paths(k, 2000, 6, seed=4))
    assert abs(6 * report.l_G_estimate - 6 * math.log(2)) < 1e-12


@pytest.mark.parametrize("name", ["root-jump", "far-reach"])
def test_green_drift_radius_two_mixed_levels_matches_per_target(name):
    # radius-2 paths end on several levels: one batched DP per final level
    k = _SHADOW_KERNELS[name]
    samples = sample_paths(k, 300, 9, seed=8)
    assert len(set(samples.final_levels.tolist())) > 1
    report = green_drift_estimate(k, samples, keep_values=True)
    expected = [hitting_vector(k, s.final_word)[ROOT] for s in samples]
    assert report.hit_values == expected
    for s, f in zip(samples[:40], expected):
        assert _reference_hitting_vector(k, s.final_word)[ROOT] == f
    gs = [-(math.log(f.numerator) - math.log(f.denominator)) / 9 for f in expected]
    assert np.allclose(report.g_over_n, gs, rtol=1e-12, atol=0)


# -- batched Martin window reads -------------------------------------------------


def _reference_windows(kernel, xi, window_level, n_max, offsets):
    """The window, and K(w, v) = F(w, v) / F(o, v) from one ``hitting_vector``
    per tile v of each ray, ray by ray."""
    d = kernel.realization.degree
    cols = (-2, -1, 0, 1) if (xi * d**window_level).denominator == 1 else (-1, 0, 1)
    window = [ROOT] + [ray_word(xi, level, off, d)
                       for level in (window_level, window_level + 1) for off in cols]
    out = []
    for off in offsets:
        vectors = []
        for n in range(window_level + 2, n_max + 1):
            v = ray_word(xi, n, off, d)
            vec = hitting_vector(kernel, v)
            if ROOT not in vec:
                raise ZeroDivisionError(f"target {v} outside the shadow of the root")
            vectors.append({w: vec.get(w, F(0)) / vec[ROOT] for w in window})
        out.append((off, window, vectors))
    return out


def _assert_windows_match(run, kernel, xi, window_level, n_max, offsets):
    try:
        expected = _reference_windows(kernel, xi, window_level, n_max, offsets)
    except ZeroDivisionError as err:
        with pytest.raises(ZeroDivisionError, match=f"^{re.escape(str(err))}$"):
            run()
        return
    assert [(t.ray_offset, t.window, t.vectors) for t in run()] == expected


@st.composite
def _martin_cases(draw):
    name = draw(st.sampled_from(["1/4", "2/5", "1/2", "3/5", "large-q", "root-jump",
                                 "far-reach"]))
    if name == "large-q":
        q = 2**70 + 1
        kernel = doubling_kernel(F(draw(st.integers(1, q - 1)), q))
    elif "/" in name:
        kernel = doubling_kernel(F(name))
    else:
        kernel = _SHADOW_KERNELS[name]
    window_level = draw(st.integers(0, 4))
    n_max = window_level + draw(st.integers(4, 9))
    top = 2**window_level
    # d-adic points at the window level, or interior points of odd denominator
    xi = draw(st.one_of(st.integers(0, top - 1).map(lambda j: F(j, top)),
                        st.tuples(st.integers(1, 60), st.sampled_from([3, 5, 7, 9, 13, 61]))
                        .map(lambda pq: F(pq[0] % pq[1], pq[1]))))
    # the rays martin_traces follows, and one whose anchor is a window column
    dyadic = (xi * top).denominator == 1
    offsets = (-2, -1, 0, 1) if dyadic else (0,)
    offset = draw(st.sampled_from([-2, -1, 0, 1] if dyadic else [-1, 0, 1]))
    return kernel, xi, window_level, n_max, offsets, offset


@given(_martin_cases())
@settings(max_examples=60, deadline=None)
def test_batched_martin_windows_match_per_tile_hitting_vectors(case):
    kernel, xi, window_level, n_max, offsets, offset = case
    _assert_windows_match(lambda: martin_traces(kernel, xi, window_level, n_max),
                          kernel, xi, window_level, n_max, offsets)
    _assert_windows_match(lambda: [martin_trace(kernel, xi, window_level, n_max, offset)],
                          kernel, xi, window_level, n_max, (offset,))


@pytest.mark.parametrize("run,first", [
    (lambda k: martin_traces(k, F(3, 4), 2, 6), "10110"),
    (lambda k: martin_trace(k, F(3, 4), 2, 6, ray_offset=-1), "1011"),
], ids=["four-rays", "one-ray"])
def test_martin_ray_outside_the_root_shadow_raises(run, first):
    # no tile with two consecutive 1s is reachable; at 3/4 the ray of offset
    # -2 leaves the shadow at level 5 (10110), that of -1 already at level 4
    # (1011): the error names the first unreachable tile ray by ray
    with pytest.raises(ZeroDivisionError, match=f"^target {first} outside the shadow of the root$"):
        run(_SHADOW_KERNELS["uneven"])


# -- path-space invariance against per-cylinder lifted sums ------------------------


def _reference_step(kernel, dist):
    nxt = {}
    for u, pu in dist.items():
        for w, p in kernel.outgoing(u):
            if p:
                nxt[w] = nxt.get(w, F(0)) + pu * p
    return nxt


def _reference_lifted_chain_mass(kernel, z, vs):
    """Sum over continuations w_1..w_m from z with shift^|z| w_i = v_i of the
    product of transition probabilities."""
    t = z.level
    cur = {z: F(1)}
    for v in vs:
        cur = {w: pw for w, pw in _reference_step(kernel, cur).items()
               if w.level == t + v.level and Word(w.symbols[t:]) == v}
        if not cur:
            return F(0)
    return sum(cur.values(), F(0))


def _reference_cylinder_check(kernel, max_m, max_k):
    """The rows and mixing rows of ``cylinder_invariance_check`` as tuples:
    the support cylinders enumerated chain by chain, weighed by products of
    ``kernel.weight``, and every left-hand side summed over the start tiles
    of its step law, one lifted continuation sum per tile."""
    cylinders, frontier = [], [(ROOT,)]
    for _ in range(max_m):
        frontier = [chain + (w,) for chain in frontier
                    for w, p in kernel.outgoing(chain[-1]) if p]
        cylinders.extend(frontier)
    weight = {cyl: math.prod((kernel.weight(u, v) for u, v in zip(cyl, cyl[1:])), start=F(1))
              for cyl in cylinders}
    dists = [{ROOT: F(1)}]
    for _ in range(max_k):
        dists.append(_reference_step(kernel, dists[-1]))
    rows = []
    for cyl in cylinders:
        for k in range(max_k + 1):
            lhs = sum((pz * _reference_lifted_chain_mass(kernel, z, cyl[1:])
                       for z, pz in dists[k].items()), F(0))
            rows.append((cyl, k, lhs, weight[cyl], lhs == weight[cyl]))
    mixing = []
    short = [c for c in cylinders if len(c) - 1 <= max(1, max_m - 1)]
    for first in short:
        m_first = len(first) - 1
        laws = [{first[-1]: weight[first]}]
        for _ in range(m_first + 1, max_k + 1):
            laws.append(_reference_step(kernel, laws[-1]))
        for second in short:
            rhs = weight[first] * weight[second]
            for k, law in enumerate(laws[1:], m_first + 1):
                lhs = sum((pz * _reference_lifted_chain_mass(kernel, z, second[1:])
                           for z, pz in law.items()), F(0))
                mixing.append((first, second, k, lhs, rhs, lhs == rhs))
    return rows, mixing


_CYLINDER_KERNELS = {**{f"x={x}": doubling_kernel(x) for x in (F(1, 4), F(1, 2), F(3, 5))},
                     **_SHADOW_KERNELS}


@pytest.mark.parametrize("name", list(_CYLINDER_KERNELS))
def test_cylinder_invariance_matches_per_cylinder_reference(name):
    k = _CYLINDER_KERNELS[name]
    cases = [(1, 2), (2, 2), (2, 4)] + ([(3, 3)] if name in ("x=1/2", "far-reach") else [])
    for max_m, max_k in cases:
        report = cylinder_invariance_check(k, max_m, max_k)
        rows, mixing = _reference_cylinder_check(k, max_m, max_k)
        assert [(r.words, r.k, r.lhs, r.rhs, r.equal) for r in report.rows] == rows
        assert [(r.first, r.second, r.k, r.lhs, r.rhs, r.equal)
                for r in report.mixing_rows] == mixing
        assert all(isinstance(v, F) for r in report.rows + report.mixing_rows
                   for v in (r.lhs, r.rhs))
