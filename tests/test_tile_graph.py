import io
import math
from fractions import Fraction as F

import pytest

from tilewalk.symbolic import ROOT, CircleRealization, Word, parse_word
from tilewalk.tile_graph import (
    BudgetExceededError,
    bfs_distances,
    build_graph,
    diameter_comparability,
    floyd_distance,
    flower,
    graph_distance,
    gromov_product,
    hyperbolicity_delta,
    quasi_roundness_constant,
    write_edge_dump,
)


@pytest.fixture(scope="module")
def graph6():
    return build_graph(CircleRealization(2), 6)


def test_level1_graph():
    g = build_graph(CircleRealization(2), 1)
    assert g.n_vertices == 3
    edges = sorted((str(a), str(b)) for a, b in g.edges())
    assert edges == [("0", "1"), ("o", "0"), ("o", "1")]


def test_root_adjacent_to_all_level1(graph6):
    nbrs = graph6.neighbors(ROOT)
    assert {w for w in nbrs if w.level == 1} == set(graph6.levels[1])


def test_wraparound_edge(graph6):
    u02 = Word.from_index(0, 2, 2)
    u32 = Word.from_index(3, 2, 2)
    assert u32 in graph6.neighbors(u02)


def test_edges_match_exhaustive_intersection():
    from tilewalk.symbolic import tiles_intersect
    realization = CircleRealization(3)
    g = build_graph(realization, 3)
    verts = g.vertices
    expected = set()
    for u in verts:
        for v in verts:
            if u != v and abs(u.level - v.level) <= 1 and tiles_intersect(realization, u, v):
                expected.add((min(str(u), str(v), key=lambda s: (len(s), s)),
                              max(str(u), str(v), key=lambda s: (len(s), s))))
    actual = set()
    for u, v in g.edges():
        actual.add((min(str(u), str(v), key=lambda s: (len(s), s)),
                    max(str(u), str(v), key=lambda s: (len(s), s))))
    assert actual == expected


def test_distances(graph6):
    u = Word.from_index(0, 2, 2)
    assert graph_distance(graph6, u, u) == 0
    assert graph_distance(graph6, u, Word.from_index(2, 2, 2)) == 2
    for n in (1, 3, 5):
        assert graph_distance(graph6, ROOT, Word.from_index(1, n, 2)) == n


def test_root_distance_equals_level(graph6):
    dists = bfs_distances(graph6, ROOT)
    assert all(dists[u] == u.level for u in graph6.vertices)


def test_truncation_does_not_shorten_geodesics(graph6):
    # distances between level <= 4 vertices agree on deeper truncations
    g8 = build_graph(CircleRealization(2), 8)
    verts = [u for level in graph6.levels[:5] for u in level]
    d6 = {u: bfs_distances(graph6, u) for u in verts[:40]}
    for u in verts[:40]:
        d8 = bfs_distances(g8, u)
        for v in verts:
            assert d6[u][v] == d8[v]


def test_gromov_product(graph6):
    assert gromov_product(graph6, parse_word("0"), parse_word("1")) == F(1, 2)
    assert gromov_product(graph6, Word.from_index(0, 2, 2),
                          Word.from_index(3, 2, 2)) == F(3, 2)
    u = Word.from_index(5, 4, 2)
    assert gromov_product(graph6, u, u) == 4


def test_floyd_distance(graph6):
    a = math.log(2)
    assert floyd_distance(graph6, ROOT, ROOT, a) == 0.0
    assert math.isclose(floyd_distance(graph6, ROOT, parse_word("0"), a), 0.5)


def test_floyd_shift_scaling(graph6):
    # adjacent deep pairs inside a common shadow: distance scales by e^a
    a = math.log(2)
    from tilewalk.symbolic import shift
    for i, n in ((9, 5), (18, 5), (22, 5), (13, 4)):
        u = Word.from_index(i, n, 2)
        v = Word.from_index(i + 1, n, 2)
        lhs = floyd_distance(graph6, shift(u), shift(v), a)
        rhs = math.exp(a) * floyd_distance(graph6, u, v, a)
        assert math.isclose(lhs, rhs, rel_tol=1e-12)


def test_flower(graph6):
    w = flower(graph6, Word.from_index(1, 2, 2))
    assert {str(x) for x in w} == {"00", "01", "10"}
    assert {str(x) for x in flower(graph6, parse_word("0"))} == {"0", "1"}
    assert flower(graph6, ROOT) == {ROOT}


def test_hyperbolicity_monotone_and_exact(graph6):
    reports = [hyperbolicity_delta(graph6, c) for c in (3, 4, 5, 6)]
    deltas = [r.delta for r in reports]
    assert all(r.exhaustive for r in reports)
    assert all(d >= 0 and (2 * d).denominator == 1 for d in deltas)
    assert deltas == sorted(deltas)          # max over a growing set
    # degenerate graph: all Gromov products equal at level <= 1
    tiny = build_graph(CircleRealization(2), 1)
    assert hyperbolicity_delta(tiny, 1).delta <= F(1, 2)


def test_hyperbolicity_sampled_mode(graph6):
    rep = hyperbolicity_delta(graph6, 6, triple_budget=1000, sample_size=5000, seed=3)
    assert not rep.exhaustive
    assert rep.n_triples == 5000
    assert rep.delta <= hyperbolicity_delta(graph6, 6).delta


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        build_graph(CircleRealization(2), 10, budget=100)


def test_quasi_roundness():
    realization = CircleRealization(2)
    for i, n in ((0, 1), (3, 3), (11, 5)):
        assert quasi_roundness_constant(realization, Word.from_index(i, n, 2)) == 2


def test_diameter_comparability(graph6):
    rep = diameter_comparability(graph6, 5)
    assert rep.constant >= 1
    assert rep.max_ratio >= 1 >= rep.min_ratio
    assert math.isfinite(rep.constant)


def test_edge_dump_sorted(graph6):
    buf = io.StringIO()
    n = write_edge_dump(graph6, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == n
    assert lines == sorted(lines)
    cols = lines[0].split("\t")
    assert len(cols) == 4


def test_empty_level_ranges_are_rejected(graph6):
    with pytest.raises(ValueError, match="pair level must be >= 1"):
        diameter_comparability(graph6, 0)
    with pytest.raises(ValueError, match="level cutoff must be >= 0"):
        hyperbolicity_delta(graph6, -1)
    root_only = hyperbolicity_delta(graph6, 0)
    assert root_only.delta == 0 and root_only.witness == (ROOT,) * 4
