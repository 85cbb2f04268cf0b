import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilewalk.symbolic import (
    ROOT,
    CircleRealization,
    TileInterval,
    Word,
    arc_hull,
    arcs_diameter,
    enumerate_level,
    parent,
    parse_word,
    shift,
    tile_of,
    tiles_intersect,
)


@pytest.fixture(scope="module")
def circle2():
    return CircleRealization(2)


def test_enumerate_level_counts(circle2):
    assert enumerate_level(circle2, 0) == [ROOT]
    assert [str(w) for w in enumerate_level(circle2, 2)] == ["00", "01", "10", "11"]
    assert len(enumerate_level(CircleRealization(3), 3)) == 27


def test_enumerate_parents_enumerated(circle2):
    level3 = enumerate_level(circle2, 3)
    level2 = set(enumerate_level(circle2, 2))
    assert all(parent(w) in level2 for w in level3)


def test_tile_examples(circle2):
    t1 = tile_of(circle2, parse_word("1"))
    assert (t1.lo, t1.hi) == (F(1, 2), F(1))
    assert tile_of(circle2, ROOT).width == 1
    t01 = tile_of(circle2, parse_word("01"))
    assert (t01.lo, t01.hi) == (F(1, 4), F(2, 4))


def test_shift_and_parent(circle2):
    assert str(shift(parse_word("01"))) == "1"
    assert shift(parse_word("1")) == ROOT
    assert shift(ROOT) == ROOT
    assert parent(parse_word("01")) == parse_word("0")
    assert parent(ROOT) == ROOT


def test_intersect_examples(circle2):
    u02, u22, u32 = (Word.from_index(i, 2, 2) for i in (0, 2, 3))
    assert not tiles_intersect(circle2, u02, u22)
    assert tiles_intersect(circle2, u32, u02)          # touch at 0 == 1
    u = parse_word("0110")
    assert tiles_intersect(circle2, u, parent(u))


words = st.integers(2, 3).flatmap(
    lambda d: st.tuples(st.just(d), st.integers(0, 6).flatmap(
        lambda n: st.tuples(st.integers(0, max(d**n - 1, 0)), st.just(n)))))


@given(words, st.randoms())
@settings(max_examples=60, deadline=None)
def test_shift_matches_circle_map(spec, _):
    d, (i, n) = spec
    realization = CircleRealization(d)
    u = Word.from_index(i, n, d)
    if u.level < 2:
        assert shift(u) == ROOT
        return
    # A_{shift u} is the image of A_u under x -> d x mod 1
    t = tile_of(realization, u)
    ts = tile_of(realization, shift(u))
    assert ts.lo == (t.lo * d) % 1
    assert ts.width == t.width * d


@given(words, words)
@settings(max_examples=80, deadline=None)
def test_intersect_symmetric_and_reflexive(a, b):
    da, (ia, na) = a
    db, (ib, nb) = b
    if da != db:
        return
    realization = CircleRealization(da)
    u = Word.from_index(ia, na, da)
    v = Word.from_index(ib, nb, da)
    assert tiles_intersect(realization, u, u)
    assert tiles_intersect(realization, u, v) == tiles_intersect(realization, v, u)


@given(words)
@settings(max_examples=60, deadline=None)
def test_tile_diameter_bound(spec):
    # diam A_u = d^-|u| <= lambda^(-|u|+1) xi with lambda = d, xi = 1
    d, (i, n) = spec
    u = Word.from_index(i, n, d)
    t = tile_of(CircleRealization(d), u)
    assert t.width == F(1, d**n)
    if n >= 1:
        assert t.width <= F(1, d ** (n - 1))
    assert tile_of(CircleRealization(d), parent(u)).contains_arc(t)


def test_arc_operations():
    a = TileInterval(F(3, 4), F(5, 4))
    assert a.wraps
    assert a.contains_point(F(0)) and a.contains_point(F(1, 8))
    assert not a.contains_point(F(1, 2))
    assert arcs_diameter([TileInterval(F(0), F(1, 2))]) == F(1, 2)
    assert arcs_diameter([TileInterval(F(0), F(1, 4)),
                          TileInterval(F(3, 4), F(1))]) == F(1, 2)
    assert arcs_diameter([TileInterval(F(0), F(1, 8)),
                          TileInterval(F(1, 4), F(3, 8))]) == F(3, 8)
    hull = arc_hull([TileInterval(F(9, 10), F(13, 10)),
                     TileInterval(F(1, 10), F(2, 10))])
    assert (hull.lo, hull.hi) == (F(9, 10), F(13, 10))
    d = TileInterval(F(0), F(1, 4)).distance(TileInterval(F(1, 2), F(3, 4)))
    assert d == F(1, 4)
    ball = TileInterval(F(0), F(1, 4)).neighborhood(F(1, 8))
    assert ball.contains_point(F(7, 8) + F(1, 16))
    assert not ball.contains_point(F(1, 2))


def test_midpoint_and_visual_parameter(circle2):
    assert tile_of(circle2, Word.from_index(2, 2, 2)).midpoint == F(5, 8)
    assert math.isclose(circle2.visual_parameter, math.log(2))
