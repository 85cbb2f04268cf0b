import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilewalk.symbolic import ROOT, CircleRealization, Word, parse_word, tile_of
from tilewalk.tile_graph import build_graph
from tilewalk.kernels import doubling_kernel, doubling_table_spec, extend_by_equivariance
from tilewalk.green_martin import (
    ClassificationInvariantError,
    brute_force_hitting,
    check_multiplicative,
    classify_doubling_boundary,
    green_table,
    green_value,
    hitting_vector,
    iterate_interval,
    martin_kernel,
    martin_trace,
    martin_traces,
    ratio_maps,
    ray_word,
    shadow_and_neighbors,
    shadow_hull,
    shadow_set,
)

CIRCLE = CircleRealization(2)


def w(i, n):
    return Word.from_index(i, n, 2)


@pytest.fixture(scope="module")
def graph8():
    return build_graph(CIRCLE, 8)


def test_green_identity_and_examples():
    k = doubling_kernel(F(2, 7))
    table = green_table(k, ROOT, 4)
    assert table.value(ROOT) == 1
    assert table.value(w(2, 2)) == F(2, 7)            # two paths, both ending in x
    assert table.value(w(0, 2)) == (1 - F(2, 7)) / 3


rationals = st.integers(1, 30).map(lambda n: F(n, 31))


@given(rationals)
@settings(max_examples=12, deadline=None)
def test_green_dp_equals_path_enumeration(x):
    k = doubling_kernel(x)
    assert green_table(k, ROOT, 5).values == brute_force_hitting(k, ROOT, 5)


@given(rationals, st.integers(0, 127))
@settings(max_examples=25, deadline=None)
def test_backward_dp_agrees_with_forward(x, i):
    k = doubling_kernel(x)
    target = w(i, 7)
    vec = hitting_vector(k, target)
    table = green_table(k, ROOT, 7)
    assert vec[ROOT] == table.value(target)
    # monotone support: reaching v from u means shadow(v) within shadow(u)
    src = w(i // 8, 4)
    if src in vec:
        assert shadow_set(k, target, 9) <= shadow_set(k, src, 9)


def test_green_from_deep_source_cone():
    k = doubling_kernel(F(1, 3))
    src = w(9, 5)
    table = green_table(k, src, 9)
    # cone widths stay ~3 * 2^k, far below the level size
    assert len(table.support(9)) <= 3 * 2 ** (9 - 5)
    assert table.value(src) == 1
    vec = hitting_vector(k, w(150, 9))
    assert vec.get(src, F(0)) == table.value(w(150, 9))


def test_martin_kernel_examples():
    k = doubling_kernel(F(2, 5))
    go = green_table(k, ROOT, 4)
    gu = green_table(k, w(0, 1), 4)
    assert martin_kernel(go, gu, w(2, 2)) == 1        # F = x on both routes
    assert martin_kernel(go, go, w(3, 3)) == 1        # K(o, v) = 1
    # the shadow of a level-2 tile misses the far side of the circle
    g2 = green_table(k, w(0, 2), 5)
    outside = w(9, 4)
    assert g2.value(outside) == 0
    assert martin_kernel(go, g2, outside) == 0
    with pytest.raises(ZeroDivisionError):
        martin_kernel(g2, go, outside)     # normalizing table misses the target


def test_shadow_examples():
    k = doubling_kernel(F(1, 3))
    ns = shadow_and_neighbors(k, w(5, 3), 8)
    assert w(5, 3) in ns.shadow
    assert {v.index(2) for v in ns.shadow if v.level == 4} == {9, 10, 11, 12}
    assert w(5, 3) in shadow_and_neighbors(k, w(6, 3), 8).neighbors
    assert not ns.truncated
    assert shadow_and_neighbors(k, w(5, 8), 8).truncated


def test_shadow_hull_bound():
    # R = 1, a = log 2: shadow hull within 4 * 2^-|u| of the tile
    k = doubling_kernel(F(1, 3))
    for i, n in ((0, 1), (5, 3), (0, 4), (15, 4)):
        u = w(i, n)
        hull = shadow_hull(k, u, n + 5)
        ball = tile_of(CIRCLE, u).neighborhood(F(4, 2**n))
        assert ball.contains_arc(hull)
        # and the hull approaches the open band ((i-1)/2^n, (i+2)/2^n)
        band = tile_of(CIRCLE, u).neighborhood(F(1, 2**n))
        assert band.contains_arc(hull)


def test_multiplicative_report():
    k = doubling_kernel(F(1, 3))
    v, s, u, target = ROOT, w(1, 1), w(1, 2), w(5, 4)
    rep = check_multiplicative(k, v, s, u, target)
    assert rep.precondition_ok
    assert rep.lower <= rep.middle <= rep.upper
    assert rep.holds
    # s on every path: lower bound is an equality only when s is a cut vertex
    bad = check_multiplicative(k, w(0, 3), s, w(0, 2), target)
    assert not bad.precondition_ok        # |v| > |u|


def test_multiplicative_random_quadruples(graph8):
    rng = random.Random(11)
    k = doubling_kernel(F(1, 3), graph8)
    table = green_table(k, ROOT, 8)
    pool = sorted(table.support(8), key=lambda t: t.symbols)
    done = 0
    while done < 50:
        target = rng.choice(pool)
        vec = hitting_vector(k, target)
        lv = rng.randint(0, 2)
        lu = rng.randint(lv, 5)
        v = w(rng.randrange(2**lv) if lv else 0, lv)
        u = w(rng.randrange(2**lu) if lu else 0, lu)
        if v not in vec or u not in vec:
            continue
        ls = rng.randint(lv, 7)
        s = w(rng.randrange(2**ls) if ls else 0, ls)
        rep = check_multiplicative(k, v, s, u, target)
        assert rep.holds, (v, s, u, target)
        done += 1


def test_weak_harnack_sampling():
    """F(v,w) <= C2(u,v) F(u,w) for deep w whose shadow closure meets A_u."""
    k = doubling_kernel(F(2, 5))
    pairs = [(w(0, 1), w(1, 1)), (w(1, 2), w(2, 2)), (w(3, 3), w(4, 3))]
    for u, v in pairs:
        sup_ratio = F(0)
        level = max(u.level, v.level) + 4
        for j in range(2**level):
            ww = w(j, level)
            hull = shadow_hull(k, ww, level + 3)
            if not hull.intersects(tile_of(CIRCLE, u)):
                continue
            vec = hitting_vector(k, ww)
            f_u, f_v = vec.get(u, F(0)), vec.get(v, F(0))
            assert f_u > 0, (u, ww)
            if f_v:
                sup_ratio = max(sup_ratio, f_v / f_u)
        assert sup_ratio > 0 and sup_ratio < 100


def test_martin_trace_exact_ratios_supercritical():
    k = doubling_kernel(F(1, 2))
    xi = F(1, 2)
    trace = martin_trace(k, xi, window_level=3, n_max=25, ray_offset=-2)
    cols = [ray_word(xi, 3, off) for off in (-2, -1, 0)]
    assert [trace.limit[c] for c in cols] == [1, 2, 1]
    assert trace.limit_anchor == cols[0]
    # raw window ratios differ from the limit by the second-eigenvalue tail
    raw = trace.vectors[-1]
    assert 0 < abs(float(raw[cols[1]] / raw[cols[0]]) - 2) < 1e-3
    side = martin_trace(k, xi, window_level=3, n_max=25, ray_offset=-1)
    assert side.growth == 3
    assert side.limit[cols[0]] == 0
    assert side.limit[cols[1]] == side.limit[cols[2]] != 0


def test_martin_trace_general_x():
    # supercritical: limit ratios match the eigenvector (5x-2, 4x-1, 1-x)
    x = F(3, 5)
    k = doubling_kernel(x)
    xi = F(1, 2)
    trace = martin_trace(k, xi, window_level=3, n_max=22, ray_offset=-2)
    cols = [ray_word(xi, 3, off) for off in (-2, -1, 0)]
    vec = (5 * x - 2, 4 * x - 1, 1 - x)
    ratios = [trace.limit[c] for c in cols]
    assert [r / ratios[0] for r in ratios] == [v / vec[0] for v in vec]
    # subcritical: the ray column dies; the anchor falls back to the
    # dominant column and the limit approaches the (0,1,1) direction
    k2 = doubling_kernel(F(3, 10))
    trace2 = martin_trace(k2, xi, window_level=3, n_max=25, ray_offset=-2)
    assert trace2.limit_anchor != cols[0]
    r = [float(trace2.limit[c]) for c in cols]
    assert r[0] < 1e-4 and abs(r[1] - r[2]) < 1e-6


def test_trace_root_row_and_support():
    k = doubling_kernel(F(2, 5))
    xi = F(1, 3)
    trace = martin_trace(k, xi, window_level=4, n_max=18)
    assert all(vec[ROOT] == 1 for vec in trace.vectors)
    # positive window entries sit on tiles whose shadow hull contains xi
    for vec in trace.vectors:
        for word, val in vec.items():
            if val > 0 and not word.is_root():
                hull = shadow_hull(k, word, word.level + 6)
                assert hull.contains_point(xi)


def test_shadow_kernel_bound_sampling():
    """K(u, v_n) * sum of F(o, t) over t in N(u) stays away from 0 along
    rays converging to a point near A_u."""
    k = doubling_kernel(F(2, 5))
    xi = F(1, 3)
    u = ray_word(xi, 4, 0)
    nbhd = shadow_and_neighbors(k, u, 10)
    total = sum(green_value(k, ROOT, t) if not t.is_root() else F(1)
                for t in nbhd.neighbors)
    lows = []
    for n in range(10, 16):
        v = ray_word(xi, n, 0)
        vec = hitting_vector(k, v)
        kernel_val = vec.get(u, F(0)) / vec[ROOT]
        lows.append(kernel_val * total)
    assert min(lows) > 0


def test_dyadic_vs_interior_ray_sets():
    k = doubling_kernel(F(1, 3))
    assert len(martin_traces(k, F(1, 2), 3, 12)) == 4
    assert len(martin_traces(k, F(1, 3), 3, 12)) == 1


def test_classification_threshold():
    cases = {F(1, 10): "homeomorphism", F(39, 100): "homeomorphism",
             F(2, 5): "critical", F(41, 100): "non_injective",
             F(9, 10): "non_injective"}
    for x, verdict in cases.items():
        assert classify_doubling_boundary(x).verdict == verdict
    with pytest.raises(ValueError):
        classify_doubling_boundary(F(7, 5))


def test_classification_eigen_data():
    c = classify_doubling_boundary(F(1, 2))
    assert c.eigen_data.eigenvalues == (F(1, 2), F(1, 3), 0)
    assert c.eigen_data.dyadic_top_eigenvector == (0, 1, 1, 0)
    assert c.ray_ratio_limit == (F(1, 2), F(1), F(1, 2))
    assert c.side_ray_growth == 3


def test_contraction_bound_and_true_sup():
    c = classify_doubling_boundary(F(3, 10))
    assert c.contraction == F(4, 7)
    assert c.derivative_sup == F(9, 14)
    # oracle: dense numeric maximization of the map derivatives on [0,1]
    maps = ratio_maps(F(3, 10))
    grid_max = max(float(m.derivative(F(t, 400))) for m in maps
                   for t in range(401))
    assert math.isclose(grid_max, float(c.derivative_sup), rel_tol=1e-6)
    assert grid_max > float(c.contraction)   # the quoted bound undershoots F3'


def test_interval_iteration():
    x = F(3, 10)
    maps = ratio_maps(x)
    for m in maps:
        lo, hi = m(F(0)), m(F(1))
        assert 0 <= lo < hi <= 1
    assert iterate_interval(x, []) == 1
    assert iterate_interval(x, [0]) == F(1, 2)
    # length never exceeds the product of per-map suprema
    rng = random.Random(5)
    for _ in range(20):
        js = [rng.randrange(4) for _ in range(12)]
        bound = F(1)
        for j in js:
            bound *= maps[j].derivative_sup()
        assert iterate_interval(x, js) <= bound


def test_table_kernel_green_matches_doubling(graph8):
    spec = doubling_table_spec(F(2, 5), 2)
    tk = extend_by_equivariance(spec, graph8)
    dk = doubling_kernel(F(2, 5), graph8)
    assert green_table(tk, ROOT, 6).values == green_table(dk, ROOT, 6).values
    t = w(37, 6)
    assert hitting_vector(tk, t) == hitting_vector(dk, t)


def test_multi_level_jump_kernel_dp_directions():
    # root mass split between levels 1 and 2: radius-2 kernel exercises the
    # level-skipping branches of both DP directions
    from tilewalk.kernels import TableSpec
    base = doubling_table_spec(F(1, 3), 2)
    entries = [e for e in base.entries if e[0] != ROOT]
    entries += [(ROOT, parse_word("0"), F(1, 2)),
                (ROOT, parse_word("11"), F(1, 2))]
    kernel = extend_by_equivariance(TableSpec(2, tuple(entries)),
                                    realization=CIRCLE)
    assert kernel.radius == 2
    table = green_table(kernel, ROOT, 5)
    assert table.values == brute_force_hitting(kernel, ROOT, 5)
    for i in (0, 7, 19, 31):
        target = w(i, 5)
        assert hitting_vector(kernel, target).get(ROOT, F(0)) == table.value(target)


def test_classification_invariant_raises(monkeypatch):
    import tilewalk.green_martin as gm

    monkeypatch.setattr(gm, "contraction_bound", lambda x: F(1))
    with pytest.raises(ClassificationInvariantError):
        classify_doubling_boundary(F(3, 10))
    assert classify_doubling_boundary(F(1, 2)).verdict == "non_injective"

