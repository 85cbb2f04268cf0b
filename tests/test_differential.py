"""Differential tests: the array-backed sampler, the batched F(o, .) routine,
the binning, the samples.tsv formatting, the integer lift of table kernels
and their compiled rows against per-path reference code, the exact
Fraction DPs, the Fraction tile geometry and the lift itself."""

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
    LiftAmbiguityError,
    TableSpec,
    _arc_gap,
    doubling_kernel,
    doubling_table_spec,
    extend_by_equivariance,
)
from tilewalk.symbolic import ROOT, CircleRealization, Word, parse_word, shift, tile_of


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
